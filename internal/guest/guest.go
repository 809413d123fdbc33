// Package guest models the operating system running inside a virtual
// machine (or directly on hardware): booting, resuming from a memory
// image, scheduling workload tasks, and performing file I/O through
// mounted backends.
//
// The same guest OS code runs over two CPU providers: a vmm.VM (the
// virtualized case) or a NativeCPU (the physical-machine baseline the
// paper compares against). That symmetry is what makes the Figure 1 and
// Table 1 comparisons apples-to-apples: identical workload mechanics,
// different cost of privileged operations.
package guest

import (
	"fmt"

	"vmgrid/internal/hostos"
	"vmgrid/internal/sim"
	"vmgrid/internal/storage"
)

// CPU is what a guest OS needs from the machine it runs on. It is
// implemented by vmm.VM (virtual) and NativeCPU (physical).
type CPU interface {
	// Kernel returns the simulation kernel.
	Kernel() *sim.Kernel
	// SetActivity declares the guest's current scheduling state; the
	// provider recomputes the delivered work rate.
	SetActivity(a Activity)
	// OnRate registers the callback receiving the delivered guest work
	// rate (reference work units per second). Pass nil to unregister.
	OnRate(fn func(rate float64))
	// Rate returns the currently delivered guest work rate.
	Rate() float64
	// IOPenalty returns the fixed per-I/O-operation overhead of this
	// provider (device virtualization cost for a VM, bare syscall and
	// driver cost natively).
	IOPenalty() sim.Duration
	// Off reports whether the provider is powered off: it delivers no
	// work until it starts again.
	Off() bool
}

// Activity is what the guest reports to its CPU provider.
type Activity struct {
	// Runnable is the number of runnable guest tasks.
	Runnable int
	// BgLoad is guest-internal background load (competing processes
	// from trace playback), as a load average.
	BgLoad float64
	// PrivPerSec is the running mix's privileged-event rate (system
	// calls, traps) per guest-CPU-second; these cost NativeCost natively
	// and NativeCost plus the VMM's trap overhead in a VM.
	PrivPerSec float64
	// MemPerSec is the memory-system event rate (page-table/TLB work)
	// per guest-CPU-second; free natively, trapped by a VMM.
	MemPerSec float64
}

// Contenders returns how many scheduling entities compete inside the
// guest (tasks plus the background load, if any).
func (a Activity) Contenders() int {
	n := a.Runnable
	if a.BgLoad > 0.05 {
		n++
	}
	return n
}

// NativeCost is the cost of one privileged event (system call, fault)
// on the physical machine — the baseline the VMM's trap-and-emulate
// overhead is measured against.
const NativeCost = 1 * sim.Microsecond

// NativeIOPenalty is the per-I/O syscall-and-driver cost on the
// physical machine.
const NativeIOPenalty = 60 * sim.Microsecond

// NativeCPU runs a guest OS directly on a host process — the paper's
// "physical machine" configuration.
type NativeCPU struct {
	proc *hostos.Process
	act  Activity
	sink func(rate float64)
	rate float64
}

var _ CPU = (*NativeCPU)(nil)

// NewNativeCPU wraps a host process as a CPU provider.
func NewNativeCPU(proc *hostos.Process) *NativeCPU {
	n := &NativeCPU{proc: proc}
	proc.OnRate(func(float64) { n.recompute() })
	return n
}

// Kernel implements CPU.
func (n *NativeCPU) Kernel() *sim.Kernel { return n.proc.Host().Kernel() }

// SetActivity implements CPU. Memory-system events are free natively.
// Guest-internal background load does not apply to the native case (on a
// physical machine, competing load is its own host process), but is
// honored for symmetry: it raises demand when no task is runnable.
func (n *NativeCPU) SetActivity(a Activity) {
	n.act = a
	switch {
	case a.Runnable > 0:
		n.proc.SetDemand(1)
	case a.BgLoad > 0:
		n.proc.SetDemand(minF(a.BgLoad, 1))
	default:
		n.proc.SetDemand(0)
	}
	n.recompute()
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// OnRate implements CPU.
func (n *NativeCPU) OnRate(fn func(rate float64)) {
	n.sink = fn
	if fn != nil {
		fn(n.rate)
	}
}

// Rate implements CPU.
func (n *NativeCPU) Rate() float64 { return n.rate }

// IOPenalty implements CPU.
func (n *NativeCPU) IOPenalty() sim.Duration { return NativeIOPenalty }

// Off implements CPU: a physical machine is never powered off under
// its guest.
func (n *NativeCPU) Off() bool { return false }

func (n *NativeCPU) recompute() {
	// Useful work rate: the host rate discounted by the native cost of
	// the privileged events the work generates.
	r := n.proc.Rate() / (1 + n.act.PrivPerSec*NativeCost.Seconds())
	if n.act.Runnable == 0 {
		r = 0
	}
	if r != n.rate {
		n.rate = r
		if n.sink != nil {
			n.sink(r)
		}
	}
}

// OS is the guest operating system instance.
type OS struct {
	cpu    CPU
	mounts map[string]storage.Backend

	tasks  []*Task
	booted bool
	bgLoad float64

	userSeconds float64 // accumulated reference CPU-seconds of user work
}

// NewOS creates a guest OS on the given CPU provider.
func NewOS(cpu CPU) *OS {
	os := &OS{cpu: cpu, mounts: make(map[string]storage.Backend)}
	cpu.OnRate(os.redistribute)
	return os
}

// CPU returns the provider the OS runs on.
func (o *OS) CPU() CPU { return o.cpu }

// Rebind moves the OS onto a new CPU provider — the memory-state half of
// VM migration. Task state (remaining work, pending I/O) is preserved;
// the tasks simply start draining at the new provider's delivered rate.
// The previous provider should be powered off by the caller.
func (o *OS) Rebind(cpu CPU) {
	o.cpu = cpu
	cpu.OnRate(o.redistribute)
	o.updateActivity()
}

// Kernel returns the simulation kernel.
func (o *OS) Kernel() *sim.Kernel { return o.cpu.Kernel() }

// Mount attaches a storage backend under a name ("root", "data", ...).
// Remounting a name replaces the backend, which is how a migrated VM
// reconnects to its data server.
func (o *OS) Mount(name string, b storage.Backend) {
	o.mounts[name] = b
}

// MountNames returns the attached mount points.
func (o *OS) MountNames() []string {
	out := make([]string, 0, len(o.mounts))
	for name := range o.mounts {
		out = append(out, name)
	}
	return out
}

// Booted reports whether the OS has finished booting (or resuming).
func (o *OS) Booted() bool { return o.booted }

// MarkBooted transitions the OS to booted without running the boot
// sequence — used when a VM is restored from a warm (post-boot) image.
func (o *OS) MarkBooted() { o.booted = true }

// Runnable returns the number of runnable (CPU-wanting) tasks.
func (o *OS) Runnable() int {
	n := 0
	for _, t := range o.tasks {
		if t.state == taskRunning {
			n++
		}
	}
	return n
}

// Tasks returns the number of live (not finished) tasks.
func (o *OS) Tasks() int { return len(o.tasks) }

// UserSeconds returns the total user CPU work retired so far.
func (o *OS) UserSeconds() float64 { return o.userSeconds }

// SetBackgroundLoad models trace-driven competing processes inside the
// guest (the Figure 1 "load on VM" placement): a load average u steals
// u shares of the guest CPU from the real tasks and adds a contender to
// the guest scheduler.
func (o *OS) SetBackgroundLoad(u float64) {
	if u < 0 {
		u = 0
	}
	o.bgLoad = u
	o.updateActivity()
}

// updateActivity tells the CPU provider about the current task mix.
func (o *OS) updateActivity() {
	runnable := 0
	var priv, mem float64
	for _, t := range o.tasks {
		if t.state == taskRunning {
			runnable++
			priv += t.workload.PrivPerSec
			mem += t.workload.MemVirtPerSec
		}
	}
	if runnable > 0 {
		priv /= float64(runnable)
		mem /= float64(runnable)
	}
	o.cpu.SetActivity(Activity{
		Runnable:   runnable,
		BgLoad:     o.bgLoad,
		PrivPerSec: priv,
		MemPerSec:  mem,
	})
	o.redistribute(o.cpu.Rate())
}

// redistribute splits the delivered guest rate among runnable tasks and
// the background load by processor sharing: with n tasks and load u,
// each task gets rate/(n+u). A parked task polls again once work is
// delivered.
func (o *OS) redistribute(rate float64) {
	runnable := o.Runnable()
	if runnable == 0 {
		return
	}
	per := rate / (float64(runnable) + o.bgLoad)
	for _, t := range o.tasks {
		if t.state == taskRunning && t.tracker != nil {
			t.tracker.SetRate(per)
			if t.parked && per > 0 {
				t.parked = false
				o.Kernel().After(0, t.pollFn)
			}
		}
	}
}

// remove drops a finished task from the table.
func (o *OS) remove(t *Task) {
	for i, q := range o.tasks {
		if q == t {
			o.tasks = append(o.tasks[:i], o.tasks[i+1:]...)
			break
		}
	}
	o.updateActivity()
}

// needMount reports an error naming task when mount is not attached.
func (o *OS) needMount(task, mount string) error {
	if _, ok := o.mounts[mount]; !ok {
		return fmt.Errorf("guest: task %q: mount %q not attached", task, mount)
	}
	return nil
}
