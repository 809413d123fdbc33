package guest

import (
	"errors"
	"math"
	"testing"

	"vmgrid/internal/hostos"
	"vmgrid/internal/hw"
	"vmgrid/internal/sim"
	"vmgrid/internal/storage"
)

type fixture struct {
	k     *sim.Kernel
	host  *hostos.Host
	store *storage.Store
	os    *OS
}

func newNativeFixture(t *testing.T) *fixture {
	t.Helper()
	k := sim.NewKernel(1)
	h, err := hostos.New(k, hw.ReferenceMachine("phys"))
	if err != nil {
		t.Fatal(err)
	}
	s := storage.NewStore(h)
	cpu := NewNativeCPU(h.Spawn("task"))
	os := NewOS(cpu)
	if err := s.Create("root.disk", 2<<30); err != nil {
		t.Fatal(err)
	}
	root, err := s.Open("root.disk")
	if err != nil {
		t.Fatal(err)
	}
	os.Mount("root", root)
	return &fixture{k: k, host: h, store: s, os: os}
}

func TestWorkloadValidate(t *testing.T) {
	good := MicroTask(1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Workload{
		{Name: "zero-cpu"},
		{Name: "neg-reads", CPUSeconds: 1, Reads: -1},
		{Name: "neg-bytes", CPUSeconds: 1, ReadBytes: -1},
		{Name: "neg-priv", CPUSeconds: 1, PrivPerSec: -1},
		{Name: "neg-mem", CPUSeconds: 1, MemVirtPerSec: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted %q", bad.Name)
		}
	}
}

func TestPresetWorkloadsMatchPaperBaselines(t *testing.T) {
	// Native system time = CPUSeconds × PrivPerSec × NativeCost must
	// reproduce the paper's measured user/sys splits.
	seis := SPECseis96()
	sysSeis := seis.CPUSeconds * seis.PrivPerSec * NativeCost.Seconds()
	if sysSeis < 15 || sysSeis > 23 {
		t.Errorf("SPECseis native sys time = %.1fs, paper measured 19s", sysSeis)
	}
	climate := SPECclimate()
	sysClim := climate.CPUSeconds * climate.PrivPerSec * NativeCost.Seconds()
	if sysClim < 1.5 || sysClim > 5 {
		t.Errorf("SPECclimate native sys time = %.1fs, paper measured 3s", sysClim)
	}
	if climate.MemVirtPerSec <= seis.MemVirtPerSec {
		t.Error("SPECclimate must be more memory-intensive than SPECseis")
	}
}

func TestNativeTaskElapsed(t *testing.T) {
	f := newNativeFixture(t)
	var res TaskResult
	if _, err := f.os.Run(MicroTask(10), func(r TaskResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	f.k.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// Native: 10 s of work plus 300 events/s at 1 µs each ≈ 10.003 s.
	want := 10 * (1 + 300*NativeCost.Seconds())
	if math.Abs(res.Elapsed().Seconds()-want) > 0.001 {
		t.Errorf("elapsed = %v, want %.4fs", res.Elapsed().Seconds(), want)
	}
	if res.UserSeconds != 10 {
		t.Errorf("UserSeconds = %v", res.UserSeconds)
	}
	if f.os.UserSeconds() != 10 {
		t.Errorf("OS.UserSeconds = %v", f.os.UserSeconds())
	}
}

func TestTaskWithIO(t *testing.T) {
	f := newNativeFixture(t)
	w := Workload{
		Name:       "io-task",
		CPUSeconds: 2,
		Reads:      10,
		ReadBytes:  10 << 20,
		Mount:      "root",
	}
	var res TaskResult
	if _, err := f.os.Run(w, func(r TaskResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	f.k.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Reads != 10 {
		t.Errorf("Reads = %d, want 10", res.Reads)
	}
	if res.IOWait <= 0 {
		t.Error("IOWait not recorded")
	}
	// Elapsed must exceed pure CPU time by at least the device time of
	// 10 MB (plus seeks).
	if res.Elapsed().Seconds() < 2.2 {
		t.Errorf("elapsed = %v, expected CPU + I/O", res.Elapsed())
	}
	if res.SysSeconds() <= 0 {
		t.Error("SysSeconds = 0 for an I/O-heavy task")
	}
}

func TestTaskMissingMount(t *testing.T) {
	f := newNativeFixture(t)
	w := Workload{Name: "orphan", CPUSeconds: 1, Reads: 5, ReadBytes: 1 << 20, Mount: "nfs"}
	if _, err := f.os.Run(w, nil); err == nil {
		t.Fatal("Run accepted task with missing mount")
	}
}

func TestTwoTasksShareGuestCPU(t *testing.T) {
	f := newNativeFixture(t)
	var t1End, t2End sim.Time
	if _, err := f.os.Run(MicroTask(5), func(r TaskResult) { t1End = r.End }); err != nil {
		t.Fatal(err)
	}
	if _, err := f.os.Run(MicroTask(5), func(r TaskResult) { t2End = r.End }); err != nil {
		t.Fatal(err)
	}
	if f.os.Runnable() != 2 {
		t.Fatalf("Runnable = %d", f.os.Runnable())
	}
	f.k.Run()
	// Both finish around 10 s (two 5 s tasks sharing one CPU).
	for _, end := range []sim.Time{t1End, t2End} {
		if math.Abs(end.Seconds()-10) > 0.2 {
			t.Errorf("task end = %v, want ~10s", end.Seconds())
		}
	}
}

func TestBootMarksBooted(t *testing.T) {
	f := newNativeFixture(t)
	if f.os.Booted() {
		t.Fatal("fresh OS claims booted")
	}
	var bootErr error = errSentinel
	if err := f.os.Boot(DefaultBoot(), func(err error) { bootErr = err }); err != nil {
		t.Fatal(err)
	}
	f.k.Run()
	if bootErr != nil {
		t.Fatalf("boot error: %v", bootErr)
	}
	if !f.os.Booted() {
		t.Error("OS not booted after boot completes")
	}
	if err := f.os.Boot(DefaultBoot(), nil); err == nil {
		t.Error("double boot accepted")
	}
}

var errSentinel = errTest{}

type errTest struct{}

func (errTest) Error() string { return "sentinel" }

func TestMarkBootedAndResume(t *testing.T) {
	f := newNativeFixture(t)
	f.os.MarkBooted()
	if !f.os.Booted() {
		t.Fatal("MarkBooted did not take")
	}
	done := false
	if err := f.os.ResumeWarm(DefaultResume(), func(err error) { done = err == nil }); err != nil {
		t.Fatal(err)
	}
	f.k.Run()
	if !done {
		t.Error("resume did not complete")
	}
}

func TestRebindPreservesTaskProgress(t *testing.T) {
	f := newNativeFixture(t)
	var res TaskResult
	task, err := f.os.Run(MicroTask(10), func(r TaskResult) { res = r })
	if err != nil {
		t.Fatal(err)
	}
	if err := f.k.RunUntil(sim.Time(4 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if p := task.Progress(); p < 0.3 || p > 0.5 {
		t.Fatalf("progress = %v at 4s", p)
	}
	// Move the guest to a new (faster) host mid-task.
	h2, err := hostos.New(f.k, hw.ServerMachine("big"))
	if err != nil {
		t.Fatal(err)
	}
	cpu2 := NewNativeCPU(h2.Spawn("task"))
	f.os.Rebind(cpu2)
	f.k.Run()
	if res.End == 0 {
		t.Fatal("task never finished after rebind")
	}
	// ~4 s done at speed 1, remaining ~6 work units at speed 1.2 → ~9 s.
	if res.End.Seconds() > 9.5 {
		t.Errorf("task finished at %v; rebind to faster host had no effect", res.End)
	}
	if res.UserSeconds != 10 {
		t.Errorf("UserSeconds = %v after migration", res.UserSeconds)
	}
}

func TestMountNamesAndRemount(t *testing.T) {
	f := newNativeFixture(t)
	if got := len(f.os.MountNames()); got != 1 {
		t.Fatalf("mounts = %d", got)
	}
	other, err := f.store.OpenOrCreate("data.img")
	if err != nil {
		t.Fatal(err)
	}
	f.os.Mount("data", other)
	if got := len(f.os.MountNames()); got != 2 {
		t.Errorf("mounts after add = %d", got)
	}
	f.os.Mount("data", other) // remount is idempotent
	if got := len(f.os.MountNames()); got != 2 {
		t.Errorf("mounts after remount = %d", got)
	}
}

func TestIdleOSConsumesNothing(t *testing.T) {
	f := newNativeFixture(t)
	if f.os.Runnable() != 0 || f.os.Tasks() != 0 {
		t.Error("fresh OS has phantom tasks")
	}
	if f.os.CPU().Rate() != 0 {
		t.Errorf("idle rate = %v", f.os.CPU().Rate())
	}
}

func TestTaskWithWrites(t *testing.T) {
	f := newNativeFixture(t)
	w := Workload{
		Name:       "writer",
		CPUSeconds: 3,
		Reads:      5,
		ReadBytes:  5 << 20,
		Writes:     8,
		WriteBytes: 8 << 20,
		Mount:      "root",
	}
	var res TaskResult
	if _, err := f.os.Run(w, func(r TaskResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	f.k.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Reads != 5 || res.Writes != 8 {
		t.Errorf("reads/writes = %d/%d, want 5/8", res.Reads, res.Writes)
	}
	if res.Elapsed().Seconds() <= 3 {
		t.Error("writes cost nothing")
	}
}

func TestWritesGrowCowDiff(t *testing.T) {
	// A writing task on a COW root disk must grow the session diff —
	// the mechanism that sizes migration traffic.
	k := sim.NewKernel(2)
	h, err := hostos.New(k, hw.ReferenceMachine("n"))
	if err != nil {
		t.Fatal(err)
	}
	s := storage.NewStore(h)
	if err := s.Create("base", 1<<30); err != nil {
		t.Fatal(err)
	}
	base, _ := s.Open("base")
	diff, _ := s.OpenOrCreate("d.cow")
	cow := storage.NewCowDisk(base, diff)
	os := NewOS(NewNativeCPU(h.Spawn("t")))
	os.MarkBooted()
	os.Mount("root", cow)
	w := Workload{Name: "w", CPUSeconds: 2, Writes: 16, WriteBytes: 4 << 20}
	done := false
	if _, err := os.Run(w, func(TaskResult) { done = true }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !done {
		t.Fatal("task never finished")
	}
	if cow.DiffBytes() == 0 {
		t.Error("writes did not land in the COW diff")
	}
}

func TestNegativeWritesRejected(t *testing.T) {
	bad := Workload{Name: "x", CPUSeconds: 1, Writes: -1}
	if err := bad.Validate(); err == nil {
		t.Error("negative writes accepted")
	}
}

// TestCancel: cancelling a task, while it computes or while it is
// blocked on a read, runs its done callback once, with ErrCanceled, and
// gives the other task the whole CPU from then on; a late read
// completion, a pending poll and a second Cancel change nothing.
func TestCancel(t *testing.T) {
	for _, tc := range []struct {
		name   string
		victim Workload
	}{
		{"running", MicroTask(100)},
		// Its one read falls due after 1 s of its work, 2 s into the
		// run; uncancelled, it would then share the CPU again.
		{"blocked", Workload{Name: "io", CPUSeconds: 2, PrivPerSec: 300, MemVirtPerSec: 200,
			Reads: 1, ReadBytes: 1 << 20, Mount: "root"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newNativeFixture(t)
			calls := 0
			var got error
			victim, err := f.os.Run(tc.victim, func(r TaskResult) { calls++; got = r.Err })
			if err != nil {
				t.Fatal(err)
			}
			var otherEnd sim.Time
			if _, err := f.os.Run(MicroTask(5), func(r TaskResult) { otherEnd = r.End }); err != nil {
				t.Fatal(err)
			}
			if err := f.k.RunUntil(sim.Time(2 * sim.Second)); err != nil {
				t.Fatal(err)
			}
			if tc.name == "blocked" {
				for victim.Running() {
					if err := f.k.RunFor(sim.Millisecond); err != nil {
						t.Fatal(err)
					}
				}
			}
			if victim.Done() || victim.Running() != (tc.name == "running") {
				t.Fatalf("victim done %v, running %v before Cancel", victim.Done(), victim.Running())
			}
			victim.Cancel()
			victim.Cancel()
			if calls != 1 || !errors.Is(got, ErrCanceled) || !victim.Done() {
				t.Fatalf("after Cancel: %d done calls, err %v, done %v; want 1, ErrCanceled, true", calls, got, victim.Done())
			}
			if f.os.Tasks() != 1 || f.os.Runnable() != 1 {
				t.Fatalf("%d tasks, %d runnable after Cancel; want 1, 1", f.os.Tasks(), f.os.Runnable())
			}
			f.k.Run()
			if calls != 1 {
				t.Errorf("done ran %d times", calls)
			}
			// Half the CPU for 2 s, then all of it: 1 + 4 s of work end
			// near 6 s (alone after 2 s) rather than 7 or 10 s.
			if math.Abs(otherEnd.Seconds()-6) > 0.05 {
				t.Errorf("other task ended at %.3f s, want ~6 s", otherEnd.Seconds())
			}
		})
	}
}
