package core

import (
	"errors"
	"testing"

	"vmgrid/internal/guest"
	"vmgrid/internal/hw"
	"vmgrid/internal/sim"
	"vmgrid/internal/storage"
	"vmgrid/internal/vmm"
	"vmgrid/internal/vnet"
)

// These tests inject failures into the fabric and assert the middleware
// degrades the way the paper's architecture implies it should.

func TestDHCPExhaustionFallsBackToTunnel(t *testing.T) {
	g := NewGrid(5)
	mustAdd := func(cfg NodeConfig) {
		t.Helper()
		if _, err := g.AddNode(cfg); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(NodeConfig{Name: "home", Site: "user", Role: RoleFrontEnd})
	mustAdd(NodeConfig{
		Name: "farm", Site: "provider", Role: RoleCompute,
		Slots: 2, DHCPPrefix: "10.0.0.", DHCPSize: 1, // one address only
	})
	if err := g.Net().ConnectWAN("home", "farm"); err != nil {
		t.Fatal(err)
	}
	img := storage.ImageInfo{Name: "rh72", OS: "rh72", DiskBytes: 1 * hw.GB, MemBytes: 128 * hw.MB}
	if err := g.Node("farm").InstallImage(img); err != nil {
		t.Fatal(err)
	}
	cfg := SessionConfig{
		User: "u", FrontEnd: "home", Image: "rh72",
		Mode: vmm.WarmRestore, Disk: NonPersistent, Access: AccessLocal,
		HomeNode: "home",
	}
	first := startSession(t, g, cfg)
	if first.Addr() == "" {
		t.Fatal("first session should get the one address")
	}
	second := startSession(t, g, cfg)
	if second.Addr() != "" {
		t.Error("second session got an address from an exhausted pool")
	}
	if second.Tunnel() == nil {
		t.Error("second session did not fall back to tunneling")
	}
	checkNoLeaks(t, g)
}

func TestImageServerPartitionFailsOnDemandSession(t *testing.T) {
	g := testbedRemoteImages(t)
	// Cut both WAN links before the session starts (cutting only one
	// just reroutes through the front end — multi-path works).
	if err := g.Net().SetLinkUp("compute1", "images", false); err != nil {
		t.Fatal(err)
	}
	if err := g.Net().SetLinkUp("front", "images", false); err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	cfg.Access = AccessOnDemand
	var got error
	done := false
	if _, err := g.CreateSession(cfg, func(_ *Session, err error) { got = err; done = true }); err != nil {
		t.Fatal(err)
	}
	_ = g.Kernel().RunUntil(g.Kernel().Now().Add(sim.Hour))
	if !done {
		t.Fatal("session never resolved")
	}
	if got == nil {
		t.Fatal("session succeeded across a partition")
	}
	checkNoLeaks(t, g)
}

func TestTunnelEstablishmentFailsAcrossPartition(t *testing.T) {
	g := NewGrid(6)
	if _, err := g.AddNode(NodeConfig{Name: "home", Site: "u", Role: RoleFrontEnd}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddNode(NodeConfig{Name: "relay", Site: "u", Role: RoleFrontEnd}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddNode(NodeConfig{Name: "farm", Site: "p", Role: RoleCompute, Slots: 1}); err != nil {
		t.Fatal(err)
	}
	if err := g.Net().ConnectWAN("home", "farm"); err != nil {
		t.Fatal(err)
	}
	img := storage.ImageInfo{Name: "rh72", OS: "rh72", DiskBytes: 1 * hw.GB, MemBytes: 128 * hw.MB}
	if err := g.Node("farm").InstallImage(img); err != nil {
		t.Fatal(err)
	}
	// Home node partitions after submission but before connectivity.
	if err := g.Net().SetLinkUp("home", "farm", false); err != nil {
		t.Fatal(err)
	}
	cfg := SessionConfig{
		User: "u", FrontEnd: "home", Image: "rh72",
		Mode: vmm.WarmRestore, Disk: NonPersistent, Access: AccessLocal,
		HomeNode: "home",
	}
	var got error
	done := false
	if _, err := g.CreateSession(cfg, func(_ *Session, err error) { got = err; done = true }); err != nil {
		t.Fatal(err)
	}
	_ = g.Kernel().RunUntil(g.Kernel().Now().Add(sim.Hour))
	if !done {
		t.Fatal("session never resolved")
	}
	if !errors.Is(got, vnet.ErrPoolExhausted) && got == nil {
		// Any failure is acceptable; success is not.
		t.Log("session failed as expected:", got)
	}
	if got == nil {
		t.Fatal("session established a tunnel across a partition")
	}
	checkNoLeaks(t, g)
}

func TestMigrateToFullNodeRejected(t *testing.T) {
	g := testbed(t)
	// Fill compute2 completely.
	cfg := baseConfig()
	cfg.Site = "nwu"
	var fillers []*Session
	for i := 0; i < 4; i++ {
		fillers = append(fillers, startSession(t, g, cfg))
	}
	var victim *Session
	for _, s := range fillers {
		if s.Node().Name() == "compute1" {
			victim = s
			break
		}
	}
	if victim == nil {
		t.Fatal("no session on compute1")
	}
	if err := victim.Migrate("compute2", nil); err == nil {
		t.Error("migrate to a full node accepted")
	}
	checkNoLeaks(t, g)
}

func TestHibernateDuringIOCompletesAfterWake(t *testing.T) {
	g := testbed(t)
	s := startSession(t, g, baseConfig())
	w := guest.Workload{
		Name: "io-heavy", CPUSeconds: 60,
		Reads: 600, ReadBytes: 300 << 20, Mount: "data",
	}
	var res guest.TaskResult
	done := false
	if err := s.Run(w, func(r guest.TaskResult) { res = r; done = true }); err != nil {
		t.Fatal(err)
	}
	_ = g.Kernel().RunUntil(g.Kernel().Now().Add(20 * sim.Second))

	if err := s.Hibernate(nil); err != nil {
		t.Fatal(err)
	}
	_ = g.Kernel().RunUntil(g.Kernel().Now().Add(5 * sim.Minute))
	if s.State() != StateHibernated {
		t.Fatalf("state = %q", s.State())
	}
	if err := s.Wake(nil); err != nil {
		t.Fatal(err)
	}
	_ = g.Kernel().RunUntil(g.Kernel().Now().Add(30 * sim.Minute))
	if !done {
		t.Fatal("I/O-heavy task never finished after hibernate/wake")
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Reads != 600 {
		t.Errorf("reads = %d, want 600", res.Reads)
	}
	checkNoLeaks(t, g)
}

func TestDoubleMigrateSequential(t *testing.T) {
	g := testbed(t)
	s := startSession(t, g, baseConfig())
	firstNode := s.Node().Name()
	other := "compute2"
	if firstNode == "compute2" {
		other = "compute1"
	}
	var task guest.TaskResult
	done := false
	if err := s.Run(guest.MicroTask(90), func(r guest.TaskResult) { task = r; done = true }); err != nil {
		t.Fatal(err)
	}
	migrate := func(target string) {
		t.Helper()
		finished := false
		if err := s.Migrate(target, func(err error) {
			if err != nil {
				t.Errorf("migrate to %s: %v", target, err)
			}
			finished = true
		}); err != nil {
			t.Fatal(err)
		}
		_ = g.Kernel().RunUntil(g.Kernel().Now().Add(20 * sim.Minute))
		if !finished {
			t.Fatalf("migration to %s never completed", target)
		}
	}
	_ = g.Kernel().RunUntil(g.Kernel().Now().Add(10 * sim.Second))
	migrate(other)     // there ...
	migrate(firstNode) // ... and back again
	_ = g.Kernel().RunUntil(g.Kernel().Now().Add(30 * sim.Minute))
	if !done {
		t.Fatal("task lost across double migration")
	}
	if task.UserSeconds != 90 {
		t.Errorf("UserSeconds = %v", task.UserSeconds)
	}
	if s.Node().Name() != firstNode {
		t.Errorf("session on %s, want %s", s.Node().Name(), firstNode)
	}
	checkNoLeaks(t, g)
}

// TestMigrateRefusedWhileCheckpointHoldsSuspend: a migration asked for
// while a supervisor checkpoint holds the VM suspended is refused at
// once, without calling done — and leaves the session free: a later
// checkpoint and a later migration both succeed.
func TestMigrateRefusedWhileCheckpointHoldsSuspend(t *testing.T) {
	g := testbed(t)
	s := startSession(t, g, baseConfig())
	// An interval of years keeps periodic checkpoints out of the way.
	sup := superviseSession(t, g, s, SupervisorConfig{CheckpointInterval: 100000 * sim.Hour})
	c := sup.charge(s.Name())
	k := g.Kernel()
	other := "compute2"
	if s.Node().Name() == other {
		other = "compute1"
	}

	// Start a checkpoint and stop once its suspend has landed: the VM
	// stays suspended while the state files stage.
	held := false
	sup.checkpoint(c, func(err error) {
		if err != nil {
			t.Errorf("holding checkpoint: %v", err)
		}
		held = true
	})
	deadline := k.Now().Add(10 * sim.Minute)
	for s.VM().State() != vmm.StateSuspended && k.Now() < deadline {
		_ = k.RunFor(10 * sim.Millisecond)
	}
	if s.VM().State() != vmm.StateSuspended || held {
		t.Fatalf("no checkpoint holds the VM suspended (vm %v, checkpoint done %v)", s.VM().State(), held)
	}
	err := s.Migrate(other, func(err error) {
		t.Errorf("done called for a refused migration: %v", err)
	})
	if !errors.Is(err, vmm.ErrBadState) {
		t.Fatalf("migrate under a checkpoint suspend = %v, want vmm.ErrBadState", err)
	}
	stepUntil(g, 10*sim.Minute, func() bool { return held })
	if !held {
		t.Fatal("holding checkpoint never finished")
	}

	later := false
	sup.checkpoint(c, func(err error) {
		if err != nil {
			t.Errorf("later checkpoint: %v", err)
		}
		later = true
	})
	stepUntil(g, 10*sim.Minute, func() bool { return later })
	if !later {
		t.Fatal("later checkpoint never finished")
	}
	migrated := false
	if err := s.Migrate(other, func(err error) {
		if err != nil {
			t.Errorf("later migration: %v", err)
		}
		migrated = true
	}); err != nil {
		t.Fatalf("later migration refused: %v", err)
	}
	stepUntil(g, 20*sim.Minute, func() bool { return migrated })
	if !migrated || s.Node().Name() != other {
		t.Fatalf("later migration: done %v, session on %s, want %s", migrated, s.Node().Name(), other)
	}
	checkNoLeaks(t, g)
}
