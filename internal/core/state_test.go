package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"vmgrid/internal/guest"
	"vmgrid/internal/sim"
	"vmgrid/internal/vmm"
)

// otherCompute names the testbed compute node s is not on.
func otherCompute(s *Session) string {
	if s.Node().Name() == "compute2" {
		return "compute1"
	}
	return "compute2"
}

// migrateAndWait migrates s and steps the kernel until the migration
// reports, returning its error.
func migrateAndWait(t *testing.T, g *Grid, s *Session, target string) error {
	t.Helper()
	var merr error
	finished := false
	if err := s.Migrate(target, func(err error) { merr, finished = err, true }); err != nil {
		return err
	}
	stepUntil(g, sim.Hour, func() bool { return finished })
	if !finished {
		t.Fatalf("migration to %s never reported", target)
	}
	return merr
}

// A node that crashed and rebooted keeps its store, so the crashed
// incarnation's state files are still there; migrating the session
// back onto it must replace them, not trip over them.
func TestMigrateBackToRebootedHost(t *testing.T) {
	g := testbed(t)
	s := startSession(t, g, baseConfig())
	sup := superviseSession(t, g, s, SupervisorConfig{CheckpointInterval: 30 * sim.Second})
	first := s.Node().Name()
	if err := g.CrashNode(first); err != nil {
		t.Fatal(err)
	}
	stepUntil(g, sim.Hour, func() bool { return s.State() == StateRunning })
	if s.State() != StateRunning || s.Node().Name() == first {
		t.Fatalf("failover did not move the session: state %q on %s", s.State(), s.Node().Name())
	}
	// Stop checkpointing so the migration below does not race one.
	sup.Stop()
	stepUntil(g, sim.Hour, func() bool { return s.VM().State() == vmm.StateRunning })
	if err := g.RebootNode(first); err != nil {
		t.Fatal(err)
	}
	if !g.Node(first).Store().Has(s.Name() + ".mem") {
		t.Fatal("test premise: the crashed incarnation's .mem should survive the reboot")
	}
	if err := migrateAndWait(t, g, s, first); err != nil {
		t.Fatalf("migrate back to rebooted %s: %v", first, err)
	}
	if s.Node().Name() != first || s.State() != StateRunning {
		t.Fatalf("session %q on %s, want running on %s", s.State(), s.Node().Name(), first)
	}
	var res guest.TaskResult
	if err := s.Run(guest.MicroTask(10), func(r guest.TaskResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	stepUntil(g, sim.Hour, func() bool { return res.UserSeconds > 0 })
	if res.UserSeconds != 10 || res.Err != nil {
		t.Fatalf("task after migrating back: %+v", res)
	}
}

// A migration that suspended the guest and then failed in transfer must
// hand back a running guest, not a session that reads "running" over a
// VM frozen for good.
func TestFailedMigrationResumesSource(t *testing.T) {
	g := testbed(t)
	s := startSession(t, g, baseConfig())
	target := otherCompute(s)
	var merr error
	finished := false
	if err := s.Migrate(target, func(err error) { merr, finished = err, true }); err != nil {
		t.Fatal(err)
	}
	// The suspend is still writing the memory image: cut the target off
	// before the transfer starts.
	if err := g.Net().SetNodeUp(target, false); err != nil {
		t.Fatal(err)
	}
	stepUntil(g, sim.Hour, func() bool { return finished })
	if !finished || merr == nil {
		t.Fatalf("migration to an unreachable node: finished %v, err %v", finished, merr)
	}
	if s.State() != StateRunning || s.VM().State() != vmm.StateRunning {
		t.Fatalf("after failed migration: session %q, VM %v", s.State(), s.VM().State())
	}
	var res guest.TaskResult
	if err := s.Run(guest.MicroTask(10), func(r guest.TaskResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	stepUntil(g, sim.Hour, func() bool { return res.UserSeconds > 0 })
	if res.UserSeconds != 10 || res.Err != nil {
		t.Fatalf("task after failed migration never finished: %+v", res)
	}
}

// A migration that starts from hibernation and fails stays hibernated:
// the resume-on-failure rule only undoes a suspend the migration did.
func TestFailedHibernatedMigrationStaysHibernated(t *testing.T) {
	g := testbed(t)
	s := startSession(t, g, baseConfig())
	target := otherCompute(s)
	hibernated := false
	if err := s.Hibernate(func(err error) { hibernated = err == nil }); err != nil {
		t.Fatal(err)
	}
	stepUntil(g, sim.Hour, func() bool { return hibernated })
	if err := g.Net().SetNodeUp(target, false); err != nil {
		t.Fatal(err)
	}
	if err := migrateAndWait(t, g, s, target); err == nil {
		t.Fatal("migration to an unreachable node succeeded")
	}
	if s.State() != StateHibernated || s.VM().State() != vmm.StateSuspended {
		t.Fatalf("after failed migration: session %q, VM %v", s.State(), s.VM().State())
	}
}

// startupCase pins one start-up combination: the session's life-cycle
// timeline (step@virtual-µs) and which session files its node holds.
type startupCase struct {
	events string
	files  string
}

// startupMatrix holds every Mode × Disk × Access combination validate
// accepts.
var startupMatrix = map[string]startupCase{
	"reboot/non-persistent/DiskFS":       {events: "submitted@0 future-selected@120000 image-located@240000 vm-starting@1540478 vm-running@65529299 addr-assigned@65529299 data-attached@65529299 ready@65529299", files: "mem,cow"},
	"reboot/non-persistent/LoopbackNFS":  {events: "submitted@0 future-selected@120000 image-located@240000 vm-starting@1540478 vm-running@74400888 addr-assigned@74400888 data-attached@74400888 ready@74400888", files: "mem,cow"},
	"reboot/non-persistent/on-demand":    {events: "submitted@0 future-selected@120000 image-located@240000 vm-starting@1540478 vm-running@63831377 addr-assigned@63831377 data-attached@63831377 ready@63831377", files: "mem,cow"},
	"reboot/non-persistent/staged":       {events: "submitted@0 future-selected@120000 image-located@240000 vm-starting@128679806 vm-running@192666988 addr-assigned@192666988 data-attached@192666988 ready@192666988", files: "disk,memimg,mem"},
	"reboot/persistent/DiskFS":           {events: "submitted@0 future-selected@120000 image-located@240000 vm-starting@220080510 vm-running@284067692 addr-assigned@284067692 data-attached@284067692 ready@284067692", files: "disk,memimg,mem"},
	"reboot/persistent/LoopbackNFS":      {events: "submitted@0 future-selected@120000 image-located@240000 vm-starting@1540478 vm-running@74400888 addr-assigned@74400888 data-attached@74400888 ready@74400888", files: "mem,cow"},
	"reboot/persistent/on-demand":        {events: "submitted@0 future-selected@120000 image-located@240000 vm-starting@1540478 vm-running@63831377 addr-assigned@63831377 data-attached@63831377 ready@63831377", files: "mem,cow"},
	"reboot/persistent/staged":           {events: "submitted@0 future-selected@120000 image-located@240000 vm-starting@128679806 vm-running@192666988 addr-assigned@192666988 data-attached@192666988 ready@192666988", files: "disk,memimg,mem"},
	"restore/non-persistent/DiskFS":      {events: "submitted@0 future-selected@120000 image-located@240000 vm-starting@1540478 vm-running@11197833 addr-assigned@11197833 data-attached@11197833 ready@11197833", files: "mem,cow"},
	"restore/non-persistent/LoopbackNFS": {events: "submitted@0 future-selected@120000 image-located@240000 vm-starting@1540478 vm-running@28381202 addr-assigned@28381202 data-attached@28381202 ready@28381202", files: "mem,cow"},
	"restore/non-persistent/on-demand":   {events: "submitted@0 future-selected@120000 image-located@240000 vm-starting@1540478 vm-running@17386051 addr-assigned@17386051 data-attached@17386051 ready@17386051", files: "mem,cow"},
	"restore/non-persistent/staged":      {events: "submitted@0 future-selected@120000 image-located@240000 vm-starting@128679806 vm-running@134986530 addr-assigned@134986530 data-attached@134986530 ready@134986530", files: "disk,memimg,mem"},
	"restore/persistent/DiskFS":          {events: "submitted@0 future-selected@120000 image-located@240000 vm-starting@220080510 vm-running@226387234 addr-assigned@226387234 data-attached@226387234 ready@226387234", files: "disk,memimg,mem"},
	"restore/persistent/LoopbackNFS":     {events: "submitted@0 future-selected@120000 image-located@240000 vm-starting@1540478 vm-running@28381202 addr-assigned@28381202 data-attached@28381202 ready@28381202", files: "mem,cow"},
	"restore/persistent/on-demand":       {events: "submitted@0 future-selected@120000 image-located@240000 vm-starting@1540478 vm-running@17386051 addr-assigned@17386051 data-attached@17386051 ready@17386051", files: "mem,cow"},
	"restore/persistent/staged":          {events: "submitted@0 future-selected@120000 image-located@240000 vm-starting@128679806 vm-running@134986530 addr-assigned@134986530 data-attached@134986530 ready@134986530", files: "disk,memimg,mem"},
}

// TestStartupMatrix runs every start-up combination on the testbed and
// pins its timeline and the state files it leaves on the compute node.
func TestStartupMatrix(t *testing.T) {
	for _, mode := range []vmm.StartMode{vmm.ColdBoot, vmm.WarmRestore} {
		for _, disk := range []DiskPolicy{NonPersistent, Persistent} {
			for _, access := range []ImageAccess{AccessLocal, AccessLoopback, AccessOnDemand, AccessStaged} {
				name := fmt.Sprintf("%v/%v/%v", mode, disk, access)
				t.Run(name, func(t *testing.T) {
					g := testbed(t)
					cfg := baseConfig()
					cfg.Mode, cfg.Disk, cfg.Access = mode, disk, access
					s := startSession(t, g, cfg)
					var ev []string
					for _, e := range s.Events() {
						ev = append(ev, fmt.Sprintf("%s@%d", e.Step, int64(e.At)))
					}
					var files []string
					for _, ext := range []string{"disk", "memimg", "zeromem", "mem", "cow"} {
						if s.Node().Store().Has(s.Name() + "." + ext) {
							files = append(files, ext)
						}
					}
					got := startupCase{events: strings.Join(ev, " "), files: strings.Join(files, ",")}
					want, ok := startupMatrix[name]
					if !ok {
						t.Fatalf("no recorded case; got\n%q: {events: %q, files: %q},", name, got.events, got.files)
					}
					if got != want {
						t.Errorf("startup drifted:\n got %+v\nwant %+v", got, want)
					}
				})
			}
		}
	}
}

// A staged start whose image transfer fails ends with the error and
// gives its compute slot back.
func TestStagedStartStageFails(t *testing.T) {
	g := testbedRemoteImages(t)
	node := g.Node("compute1")
	slots := node.Slots()
	cfg := baseConfig()
	cfg.Access = AccessStaged
	var serr error
	done := false
	s, err := g.CreateSession(cfg, func(_ *Session, err error) { serr, done = err, true })
	if err != nil {
		t.Fatal(err)
	}
	deadline := g.Kernel().Now().Add(sim.Minute)
	for s.EventAt("image-located") < 0 && g.Kernel().Now() < deadline {
		_ = g.Kernel().RunUntil(g.Kernel().Now().Add(10 * sim.Millisecond))
	}
	if s.EventAt("image-located") < 0 {
		t.Fatal("image never located")
	}
	if err := g.Net().SetNodeUp("images", false); err != nil {
		t.Fatal(err)
	}
	_ = g.Kernel().RunUntil(g.Kernel().Now().Add(sim.Hour))
	if !done {
		t.Fatal("staged start never resolved")
	}
	if serr == nil {
		t.Fatal("staged start succeeded with the image server partitioned")
	}
	if s.State() != StateDead {
		t.Errorf("state = %q, want dead", s.State())
	}
	if node.Slots() != slots {
		t.Errorf("slots = %d after the failed start, want %d", node.Slots(), slots)
	}
	if errors.Is(serr, ErrNoImage) {
		t.Errorf("failed at image location, not staging: %v", serr)
	}
}
