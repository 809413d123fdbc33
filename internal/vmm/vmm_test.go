package vmm

import (
	"errors"
	"math"
	"testing"

	"vmgrid/internal/guest"
	"vmgrid/internal/hostos"
	"vmgrid/internal/hw"
	"vmgrid/internal/sim"
	"vmgrid/internal/storage"
)

type rig struct {
	k     *sim.Kernel
	host  *hostos.Host
	store *storage.Store
}

func newRig(t testing.TB) *rig {
	t.Helper()
	k := sim.NewKernel(1)
	h, err := hostos.New(k, hw.ReferenceMachine("host"))
	if err != nil {
		t.Fatal(err)
	}
	s := storage.NewStore(h)
	img := storage.ImageInfo{Name: "rh72", OS: "redhat-7.2", DiskBytes: 2 * hw.GB, MemBytes: 128 * hw.MB}
	if err := storage.InstallImage(s, img); err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, host: h, store: s}
}

// newVM builds a VM with a COW disk over the installed image and a local
// memory image — the non-persistent DiskFS configuration of Table 2.
func (r *rig) newVM(t testing.TB, name string) *VM {
	t.Helper()
	base, err := r.store.Open("rh72.disk")
	if err != nil {
		t.Fatal(err)
	}
	diff, err := r.store.OpenOrCreate(name + ".cow")
	if err != nil {
		t.Fatal(err)
	}
	mem, err := r.store.Open("rh72.mem")
	if err != nil {
		t.Fatal(err)
	}
	vm, err := New(r.host, Config{
		Name:     name,
		MemBytes: 128 * hw.MB,
		Disk:     storage.NewCowDisk(base, diff),
		MemImage: mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestNewValidation(t *testing.T) {
	r := newRig(t)
	if _, err := New(r.host, Config{MemBytes: 1}); err == nil {
		t.Error("unnamed VM accepted")
	}
	if _, err := New(r.host, Config{Name: "x"}); err == nil {
		t.Error("memoryless VM accepted")
	}
}

func TestStateStrings(t *testing.T) {
	states := []State{StateCreated, StateInitializing, StateBooting, StateRestoring,
		StateRunning, StateSuspending, StateSuspended, StateOff}
	seen := map[string]bool{}
	for _, s := range states {
		name := s.String()
		if seen[name] {
			t.Errorf("duplicate state name %q", name)
		}
		seen[name] = true
	}
	if ColdBoot.String() != "reboot" || WarmRestore.String() != "restore" {
		t.Error("start mode names do not match the paper's terminology")
	}
}

func TestColdBootTiming(t *testing.T) {
	// Table 2, VM-reboot + non-persistent DiskFS: ~65-80 s end to end
	// (minus the ~3 s globusrun overhead added at the middleware layer).
	r := newRig(t)
	vm := r.newVM(t, "vm1")
	var doneAt sim.Time = -1
	if err := vm.Start(ColdBoot, func(err error) {
		if err != nil {
			t.Errorf("boot: %v", err)
		}
		doneAt = r.k.Now()
	}); err != nil {
		t.Fatal(err)
	}
	r.k.Run()
	if doneAt < 0 {
		t.Fatal("boot never completed")
	}
	got := doneAt.Seconds()
	if got < 55 || got > 85 {
		t.Errorf("cold boot = %.1fs, want ~62-75s (Table 2 band)", got)
	}
	if vm.State() != StateRunning {
		t.Errorf("state = %v", vm.State())
	}
	if !vm.Guest().Booted() {
		t.Error("guest not booted")
	}
}

func TestWarmRestoreTiming(t *testing.T) {
	// Table 2, VM-restore + non-persistent DiskFS: ~10-25 s.
	r := newRig(t)
	vm := r.newVM(t, "vm1")
	var doneAt sim.Time = -1
	if err := vm.Start(WarmRestore, func(err error) {
		if err != nil {
			t.Errorf("restore: %v", err)
		}
		doneAt = r.k.Now()
	}); err != nil {
		t.Fatal(err)
	}
	r.k.Run()
	if doneAt < 0 {
		t.Fatal("restore never completed")
	}
	got := doneAt.Seconds()
	if got < 5 || got > 25 {
		t.Errorf("warm restore = %.1fs, want ~7-22s (Table 2 band)", got)
	}
	if !vm.Guest().Booted() {
		t.Error("guest not marked booted after restore")
	}
}

func TestRestoreMuchFasterThanBoot(t *testing.T) {
	r1 := newRig(t)
	vmBoot := r1.newVM(t, "boot-vm")
	var bootAt sim.Time
	if err := vmBoot.Start(ColdBoot, func(error) { bootAt = r1.k.Now() }); err != nil {
		t.Fatal(err)
	}
	r1.k.Run()

	r2 := newRig(t)
	vmRestore := r2.newVM(t, "restore-vm")
	var restoreAt sim.Time
	if err := vmRestore.Start(WarmRestore, func(error) { restoreAt = r2.k.Now() }); err != nil {
		t.Fatal(err)
	}
	r2.k.Run()

	if restoreAt.Seconds()*3 > bootAt.Seconds() {
		t.Errorf("restore (%.1fs) not ≪ boot (%.1fs)", restoreAt.Seconds(), bootAt.Seconds())
	}
}

func TestStartGuards(t *testing.T) {
	r := newRig(t)
	vm := r.newVM(t, "vm1")
	if err := vm.Start(ColdBoot, nil); err != nil {
		t.Fatal(err)
	}
	if err := vm.Start(ColdBoot, nil); !errors.Is(err, ErrBadState) {
		t.Errorf("double start = %v", err)
	}
	r.k.Run()

	noDisk, err := New(r.host, Config{Name: "bare", MemBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := noDisk.Start(ColdBoot, nil); !errors.Is(err, ErrNoDisk) {
		t.Errorf("diskless start = %v", err)
	}

	base, _ := r.store.Open("rh72.disk")
	noMem, err := New(r.host, Config{Name: "nomem", MemBytes: 1 << 20, Disk: base})
	if err != nil {
		t.Fatal(err)
	}
	if err := noMem.Start(WarmRestore, nil); !errors.Is(err, ErrNoMemImg) {
		t.Errorf("restore without image = %v", err)
	}
}

// macroOverhead runs workload w on a VM and natively, returning the
// relative elapsed-time overhead.
func macroOverhead(t *testing.T, w guest.Workload) float64 {
	t.Helper()

	// Native run.
	kN := sim.NewKernel(1)
	hN, err := hostos.New(kN, hw.ReferenceMachine("phys"))
	if err != nil {
		t.Fatal(err)
	}
	sN := storage.NewStore(hN)
	if err := sN.Create("data", 2*hw.GB); err != nil {
		t.Fatal(err)
	}
	osN := guest.NewOS(guest.NewNativeCPU(hN.Spawn("t")))
	dataN, _ := sN.Open("data")
	osN.Mount("data", dataN)
	osN.Mount("root", dataN)
	osN.MarkBooted()
	var native guest.TaskResult
	if _, err := osN.Run(w, func(res guest.TaskResult) { native = res }); err != nil {
		t.Fatal(err)
	}
	kN.Run()
	if native.Err != nil {
		t.Fatal(native.Err)
	}

	// VM run (local disk state).
	r := newRig(t)
	vm := r.newVM(t, "vm1")
	if err := r.store.Create("data", 2*hw.GB); err != nil {
		t.Fatal(err)
	}
	dataV, _ := r.store.Open("data")
	vm.Guest().Mount("data", dataV)
	var vres guest.TaskResult
	if err := vm.Start(WarmRestore, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vm.Guest().Run(w, func(res guest.TaskResult) { vres = res }); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	r.k.Run()
	if vres.Err != nil {
		t.Fatal(vres.Err)
	}
	return vres.Elapsed().Seconds()/native.Elapsed().Seconds() - 1
}

func TestSPECseisOverheadBand(t *testing.T) {
	// Table 1: SPECseis on VM with local disk = 1.2% over physical.
	ovh := macroOverhead(t, guest.SPECseis96())
	if ovh < 0.004 || ovh > 0.025 {
		t.Errorf("SPECseis VM overhead = %.2f%%, paper measured 1.2%%", ovh*100)
	}
}

func TestSPECclimateOverheadBand(t *testing.T) {
	// Table 1: SPECclimate on VM with local disk = 4.0% over physical.
	ovh := macroOverhead(t, guest.SPECclimate())
	if ovh < 0.02 || ovh > 0.06 {
		t.Errorf("SPECclimate VM overhead = %.2f%%, paper measured 4.0%%", ovh*100)
	}
}

func TestMicrobenchmarkSlowdownUnder10Percent(t *testing.T) {
	// Figure 1's takeaway: the VM adds ≤ ~10% for a CPU-bound test task
	// regardless of load placement. Check the unloaded case here; the
	// full 12-scenario sweep lives in the benchmark harness.
	w := guest.MicroTask(1)

	kN := sim.NewKernel(1)
	hN, _ := hostos.New(kN, hw.ReferenceMachine("phys"))
	osN := guest.NewOS(guest.NewNativeCPU(hN.Spawn("t")))
	osN.MarkBooted()
	var native guest.TaskResult
	if _, err := osN.Run(w, func(r guest.TaskResult) { native = r }); err != nil {
		t.Fatal(err)
	}
	kN.Run()

	r := newRig(t)
	vm := r.newVM(t, "vm1")
	var vres guest.TaskResult
	if err := vm.Start(WarmRestore, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vm.Guest().Run(w, func(res guest.TaskResult) { vres = res }); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	r.k.Run()

	slowdown := vres.Elapsed().Seconds() / native.Elapsed().Seconds()
	if slowdown < 1.0 {
		t.Errorf("VM faster than native: %v", slowdown)
	}
	if slowdown > 1.10 {
		t.Errorf("VM slowdown = %.3f, paper shows ≤ ~1.10", slowdown)
	}
}

func TestSuspendFreezesAndUnpauseResumes(t *testing.T) {
	r := newRig(t)
	vm := r.newVM(t, "vm1")
	var res guest.TaskResult
	taskDone := false
	if err := vm.Start(WarmRestore, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vm.Guest().Run(guest.MicroTask(30), func(rr guest.TaskResult) {
			res = rr
			taskDone = true
		}); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	// Let the task get going, then suspend.
	if err := r.k.RunUntil(sim.Time(25 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if vm.State() != StateRunning {
		t.Fatalf("state = %v at 25s", vm.State())
	}
	if err := vm.Suspend(nil); err != nil {
		t.Fatal(err)
	}
	if err := r.k.RunUntil(sim.Time(200 * sim.Second)); err != nil && !errors.Is(err, sim.ErrStalled) {
		t.Fatal(err)
	}
	if vm.State() != StateSuspended {
		t.Fatalf("state = %v after suspend", vm.State())
	}
	if taskDone {
		t.Fatal("task completed while suspended")
	}
	if err := vm.Unpause(); err != nil {
		t.Fatal(err)
	}
	r.k.Run()
	if !taskDone {
		t.Fatal("task never completed after unpause")
	}
	if res.UserSeconds != 30 {
		t.Errorf("UserSeconds = %v", res.UserSeconds)
	}
}

func TestSuspendGuards(t *testing.T) {
	r := newRig(t)
	vm := r.newVM(t, "vm1")
	if err := vm.Suspend(nil); !errors.Is(err, ErrBadState) {
		t.Errorf("suspend before start = %v", err)
	}
	if err := vm.Unpause(); !errors.Is(err, ErrBadState) {
		t.Errorf("unpause before suspend = %v", err)
	}
}

func TestPowerOffStopsConsumption(t *testing.T) {
	r := newRig(t)
	vm := r.newVM(t, "vm1")
	if err := vm.Start(WarmRestore, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vm.Guest().Run(guest.MicroTask(1000), nil); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.k.RunUntil(sim.Time(60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	vm.PowerOff()
	if vm.State() != StateOff {
		t.Fatalf("state = %v", vm.State())
	}
	if vm.Proc().Demand() != 0 {
		t.Errorf("powered-off VM still demands %v CPU", vm.Proc().Demand())
	}
	if vm.Rate() != 0 {
		t.Errorf("powered-off VM delivers rate %v", vm.Rate())
	}
}

// TestPowerOffEndsStart: powering a VM off while it initializes, boots
// or restores ends the start — done hears ErrBadState once, and the
// monitor stops consuming the host.
func TestPowerOffEndsStart(t *testing.T) {
	for _, c := range []struct {
		mode  StartMode
		at    sim.Duration
		state State
	}{
		{ColdBoot, sim.Second, StateInitializing},
		{ColdBoot, 10 * sim.Second, StateBooting},
		{WarmRestore, 4 * sim.Second, StateRestoring},
	} {
		t.Run(c.state.String(), func(t *testing.T) {
			r := newRig(t)
			vm := r.newVM(t, "vm1")
			var got []error
			if err := vm.Start(c.mode, func(err error) { got = append(got, err) }); err != nil {
				t.Fatal(err)
			}
			if err := r.k.RunUntil(sim.Time(c.at)); err != nil {
				t.Fatal(err)
			}
			if vm.State() != c.state {
				t.Fatalf("state %v at %v, want %v", vm.State(), c.at, c.state)
			}
			vm.PowerOff()
			// Run to a deadline: a guest task that kept polling the
			// powered-off VM would never let the kernel drain.
			_ = r.k.RunUntil(sim.Time(10 * sim.Minute))
			if n := r.k.Pending(); n != 0 {
				t.Errorf("%d events pending after PowerOff, want the kernel drained", n)
			}
			if len(got) != 1 || !errors.Is(got[0], ErrBadState) {
				t.Errorf("done got %v, want ErrBadState once", got)
			}
			if vm.State() != StateOff || r.host.Runnable() != 0 {
				t.Errorf("state %v, %d runnable after PowerOff; want off and idle", vm.State(), r.host.Runnable())
			}
		})
	}
}

// TestPowerOffParksGuestTask: a guest task on a powered-off VM stops
// polling, so the kernel drains, and it picks up where it stopped once
// the VM starts again.
func TestPowerOffParksGuestTask(t *testing.T) {
	r := newRig(t)
	vm := r.newVM(t, "vm1")
	w := guest.Workload{Name: "io", CPUSeconds: 30, PrivPerSec: 1000, Reads: 200, ReadBytes: 50 << 20, Mount: "root"}
	var res []guest.TaskResult
	if err := vm.Start(WarmRestore, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vm.Guest().Run(w, func(r guest.TaskResult) { res = append(res, r) }); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.k.RunUntil(sim.Time(20 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if vm.Guest().Tasks() != 1 {
		t.Fatalf("%d guest tasks at 20 s, want the workload running", vm.Guest().Tasks())
	}
	vm.PowerOff()
	_ = r.k.RunUntil(sim.Time(10 * sim.Minute))
	if n := r.k.Pending(); n != 0 || len(res) != 0 {
		t.Fatalf("%d events pending, %d results after PowerOff; want drained and unfinished", n, len(res))
	}
	if err := vm.Start(WarmRestore, nil); err != nil {
		t.Fatal(err)
	}
	r.k.Run()
	if len(res) != 1 || res[0].Err != nil || res[0].Reads != w.Reads || res[0].UserSeconds != w.CPUSeconds {
		t.Errorf("after restart got %+v, want the workload finished once with all %d reads", res, w.Reads)
	}
}

func TestAdoptGuestMigration(t *testing.T) {
	// Suspend on host A, adopt the guest into a VM on host B, restore,
	// and verify the task finishes with full work accounted.
	k := sim.NewKernel(1)
	hostA, err := hostos.New(k, hw.ReferenceMachine("A"))
	if err != nil {
		t.Fatal(err)
	}
	hostB, err := hostos.New(k, hw.ReferenceMachine("B"))
	if err != nil {
		t.Fatal(err)
	}
	mkVM := func(h *hostos.Host, name string) *VM {
		s := storage.NewStore(h)
		img := storage.ImageInfo{Name: "rh72", OS: "rh72", DiskBytes: 2 * hw.GB, MemBytes: 128 * hw.MB}
		if err := storage.InstallImage(s, img); err != nil {
			t.Fatal(err)
		}
		base, _ := s.Open("rh72.disk")
		diff, _ := s.OpenOrCreate(name + ".cow")
		mem, _ := s.Open("rh72.mem")
		vm, err := New(h, Config{Name: name, MemBytes: 128 * hw.MB,
			Disk: storage.NewCowDisk(base, diff), MemImage: mem})
		if err != nil {
			t.Fatal(err)
		}
		return vm
	}
	vmA := mkVM(hostA, "vmA")
	var res guest.TaskResult
	finished := false
	if err := vmA.Start(WarmRestore, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vmA.Guest().Run(guest.MicroTask(60), func(r guest.TaskResult) {
			res = r
			finished = true
		}); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntil(sim.Time(40 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	suspended := false
	if err := vmA.Suspend(func(error) { suspended = true }); err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntil(sim.Time(100 * sim.Second)); err != nil && !errors.Is(err, sim.ErrStalled) {
		t.Fatal(err)
	}
	if !suspended {
		t.Fatal("suspend did not complete")
	}

	vmB := mkVM(hostB, "vmB")
	migrated := vmA.Guest()
	vmA.PowerOff()
	if err := vmB.AdoptGuest(migrated); err != nil {
		t.Fatal(err)
	}
	if err := vmB.Start(WarmRestore, nil); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !finished {
		t.Fatal("migrated task never finished")
	}
	if res.UserSeconds != 60 {
		t.Errorf("UserSeconds = %v after migration", res.UserSeconds)
	}
	if math.Abs(res.End.Seconds()) < 60 {
		t.Errorf("implausibly fast migrated completion: %v", res.End)
	}
}

func TestAdoptGuestGuard(t *testing.T) {
	r := newRig(t)
	vm := r.newVM(t, "vm1")
	if err := vm.Start(ColdBoot, nil); err != nil {
		t.Fatal(err)
	}
	other := r.newVM(t, "vm2")
	if err := vm.AdoptGuest(other.Guest()); !errors.Is(err, ErrBadState) {
		t.Errorf("adopt into started VM = %v", err)
	}
}

func TestVMIOPenaltyExceedsNative(t *testing.T) {
	r := newRig(t)
	vm := r.newVM(t, "vm1")
	if vm.IOPenalty() <= guest.NativeIOPenalty {
		t.Error("virtual I/O not more expensive than native")
	}
}

// BenchmarkVMSuspendRestore is one checkpoint round trip of a 128 MB
// guest through a local memory image: a full Suspend, then a
// Start(WarmRestore) that streams the image back in.
func BenchmarkVMSuspendRestore(b *testing.B) {
	r := newRig(b)
	vm := r.newVM(b, "vm1")
	if err := vm.Start(WarmRestore, nil); err != nil {
		b.Fatal(err)
	}
	r.k.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := vm.Suspend(nil); err != nil {
			b.Fatal(err)
		}
		r.k.Run()
		if err := vm.Start(WarmRestore, nil); err != nil {
			b.Fatal(err)
		}
		r.k.Run()
	}
	if vm.State() != StateRunning {
		b.Fatalf("VM ended in %v, want running", vm.State())
	}
}
