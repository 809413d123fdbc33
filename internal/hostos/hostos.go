// Package hostos models the host operating system of a grid node: a
// time-sharing CPU scheduler multiplexing processes, POSIX-style
// stop/continue signals, a disk buffer cache, and background load
// processes driven by trace playback.
//
// The CPU is a fluid model: each runnable process declares a demand (the
// fraction of one core it would consume if unimpeded) and the scheduler
// grants rates by weighted max-min fairness, recomputed whenever the set
// of demands changes. Time-sharing costs are charged as a context-switch
// efficiency factor when more than one process shares the core, so the
// contention phenomena in the paper's Figure 1 arise mechanistically.
package hostos

import (
	"fmt"
	"math"

	"vmgrid/internal/hw"
	"vmgrid/internal/sim"
)

// Defaults for the time-sharing model, matching a Linux 2.4-era kernel on
// the paper's hardware.
const (
	// DefaultQuantum is the scheduler time slice.
	DefaultQuantum = 10 * sim.Millisecond
	// DefaultCtxSwitchCost is the direct plus cache-disturbance cost of
	// one context switch.
	DefaultCtxSwitchCost = 60 * sim.Microsecond
)

// sharingEff is the fraction of the core left to processes while more
// than one shares it: each quantum boundary costs a context switch.
var sharingEff = 1 - DefaultCtxSwitchCost.Seconds()/DefaultQuantum.Seconds()

// Host is one physical node running a host operating system.
type Host struct {
	k     *sim.Kernel
	spec  hw.MachineSpec
	disk  *hw.Disk
	cache *BufferCache

	procs  []*Process
	nextID int

	// rebalance scratch, reused across calls. rebalance runs on every
	// demand change — twice per guest I/O operation — so per-call slice
	// and map allocations here dominated the macrobenchmark profile.
	scratchActive   []*Process
	scratchUncapped []int
}

// New boots a host OS on the given hardware.
func New(k *sim.Kernel, spec hw.MachineSpec) (*Host, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("hostos: %w", err)
	}
	h := &Host{
		k:    k,
		spec: spec,
		disk: hw.NewDisk(k, spec.Disk),
	}
	// The buffer cache gets roughly what Linux would leave free on the
	// paper's 512 MB host after the kernel and resident daemons.
	h.cache = NewBufferCache(h.disk, spec.MemBytes*6/10)
	return h, nil
}

// Kernel returns the simulation kernel the host runs on.
func (h *Host) Kernel() *sim.Kernel { return h.k }

// Spec returns the host's hardware description.
func (h *Host) Spec() hw.MachineSpec { return h.spec }

// Disk returns the raw disk device.
func (h *Host) Disk() *hw.Disk { return h.disk }

// Cache returns the host's disk buffer cache.
func (h *Host) Cache() *BufferCache { return h.cache }

// Name returns the machine name.
func (h *Host) Name() string { return h.spec.Name }

// Capacity returns the CPU capacity in work units per second. The
// sequential benchmarks in the paper exercise one core; the fluid model
// likewise schedules a single core (see DESIGN.md §2).
func (h *Host) Capacity() float64 { return h.spec.CPU.Speed }

// Procs returns the current process table (a copy).
func (h *Host) Procs() []*Process {
	out := make([]*Process, len(h.procs))
	copy(out, h.procs)
	return out
}

// Runnable returns the number of processes with positive demand that are
// not stopped — the instantaneous load the machine would report.
func (h *Host) Runnable() int {
	n := 0
	for _, p := range h.procs {
		if p.active() {
			n++
		}
	}
	return n
}

// LoadAverage returns the demand-weighted load: the sum of active
// processes' CPU demands. Unlike Runnable (a process count), an idle VM
// ticking its timer at 1% demand contributes 0.01, not 1 — this is what
// a load sensor should report.
func (h *Host) LoadAverage() float64 {
	var sum float64
	for _, p := range h.procs {
		if p.active() {
			d := p.demand
			if d > 1 {
				d = 1
			}
			sum += d
		}
	}
	return sum
}

// Spawn creates a process with zero demand and weight 1.
func (h *Host) Spawn(name string) *Process {
	h.nextID++
	p := &Process{host: h, id: h.nextID, name: name, weight: 1}
	h.procs = append(h.procs, p)
	return p
}

// rebalance recomputes granted rates by weighted max-min fairness and
// notifies every process whose rate changed. The working state lives in
// scratch slices on the Host and a pending-rate field on each Process,
// so steady-state rebalances allocate nothing.
func (h *Host) rebalance() {
	capacity := h.Capacity()

	active := h.scratchActive[:0]
	for _, p := range h.procs {
		if p.active() {
			p.newRate = 0
			active = append(active, p)
		}
	}
	h.scratchActive = active

	if len(active) > 0 {
		// Weighted max-min fairness (water-filling): repeatedly hand out
		// capacity in proportion to weight, capping processes at their
		// demand, until capacity or uncapped processes run out.
		remaining := capacity
		uncapped := h.scratchUncapped[:0]
		for i := range active {
			uncapped = append(uncapped, i)
		}
		h.scratchUncapped = uncapped
		for len(uncapped) > 0 && remaining > 1e-12 {
			var wsum float64
			for _, i := range uncapped {
				wsum += active[i].weight
			}
			// Find the smallest normalized headroom to cap first. Only the
			// minimum matters — ties yield identical grants either way — so
			// a linear scan replaces sorting the whole remainder.
			minAt := 0
			minH := math.Inf(1)
			for at, i := range uncapped {
				p := active[i]
				if hr := (p.demand*capacity - p.newRate) / p.weight; hr < minH {
					minH = hr
					minAt = at
				}
			}
			uncapped[0], uncapped[minAt] = uncapped[minAt], uncapped[0]
			first := active[uncapped[0]]
			need := first.demand*capacity - first.newRate
			perWeight := remaining / wsum
			if grant := need / first.weight; grant <= perWeight {
				// The most constrained process saturates; give every
				// uncapped process that much per weight and retire it.
				for _, i := range uncapped {
					active[i].newRate += grant * active[i].weight
				}
				remaining -= grant * wsum
				uncapped = uncapped[1:]
			} else {
				// Capacity runs out before anyone else saturates.
				for _, i := range uncapped {
					active[i].newRate += perWeight * active[i].weight
				}
				remaining = 0
			}
		}
	}

	// Time-sharing overhead: with n>1 processes sharing the core, each
	// quantum boundary costs a context switch.
	sharing := 0
	for _, p := range active {
		if p.newRate > 1e-12 {
			sharing++
		}
	}
	eff := 1.0
	if sharing > 1 {
		eff = sharingEff
	}

	for _, p := range h.procs {
		rate := 0.0
		if p.active() {
			rate = p.newRate * eff
		}
		if rate != p.rate {
			p.account()
			p.rate = rate
			if p.onRate != nil {
				p.onRate(rate)
			}
		}
	}
}

// Process is a host OS process: a schedulable CPU consumer. The zero
// value is not usable; create processes with Host.Spawn.
type Process struct {
	host    *Host
	id      int
	name    string
	demand  float64 // desired fraction of one core, in [0, 1]
	weight  float64
	rate    float64 // granted work units per second
	stopped bool
	exited  bool
	onRate  func(rate float64)
	newRate float64 // rebalance working value; meaningless between calls

	// accounting: CPU consumed so far, reconciled lazily.
	consumed     float64
	consumedAsOf sim.Time
}

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// ID returns the host-unique process id.
func (p *Process) ID() int { return p.id }

// Host returns the owning host.
func (p *Process) Host() *Host { return p.host }

// Rate returns the currently granted CPU rate in work units per second.
func (p *Process) Rate() float64 { return p.rate }

// account charges the elapsed interval at the current rate.
func (p *Process) account() {
	now := p.host.k.Now()
	if now > p.consumedAsOf {
		p.consumed += p.rate * now.Sub(p.consumedAsOf).Seconds()
	}
	p.consumedAsOf = now
}

// CPUSeconds returns the total CPU the process has consumed — the basis
// for the resource accounting the paper says VM-granular control
// enables ("account for the usage of a resource in a CPU-server
// environment").
func (p *Process) CPUSeconds() float64 {
	p.account()
	return p.consumed
}

// Demand returns the current declared demand.
func (p *Process) Demand() float64 { return p.demand }

// Weight returns the scheduler weight.
func (p *Process) Weight() float64 { return p.weight }

// Stopped reports whether the process is stopped (SIGSTOP).
func (p *Process) Stopped() bool { return p.stopped }

// Exited reports whether the process has exited.
func (p *Process) Exited() bool { return p.exited }

func (p *Process) active() bool {
	return !p.stopped && !p.exited && p.demand > 0
}

// OnRate registers the callback invoked whenever the granted rate
// changes. Typically this feeds a sim.WorkTracker.SetRate.
func (p *Process) OnRate(fn func(rate float64)) {
	p.onRate = fn
	if fn != nil {
		fn(p.rate)
	}
}

// SetDemand declares how much of one core the process wants, clamped to
// [0, 1]. A CPU-bound task demands 1; trace-driven background load
// demands the trace's load average (capped at the core).
func (p *Process) SetDemand(d float64) {
	if p.exited {
		return
	}
	if d < 0 {
		d = 0
	}
	if d > 1 {
		d = 1
	}
	if d == p.demand {
		return
	}
	p.demand = d
	p.host.rebalance()
}

// SetWeight changes the scheduler weight (must be positive).
func (p *Process) SetWeight(w float64) {
	if w <= 0 || p.exited {
		return
	}
	p.weight = w
	p.host.rebalance()
}

// SetLoad configures the process to behave like a background load with
// the given load average u, the semantics of host-load trace playback: a
// load average of u stands for u competing runnable processes, so a
// CPU-bound task sharing the core sees slowdown ≈ 1+u (Dinda, LCR 2000).
// That falls out of weighted fairness with weight u and demand min(u, 1):
// alone, the load consumes min(u, 1) of the core; against a weight-1
// CPU-bound task it takes u/(1+u), leaving the task 1/(1+u).
func (p *Process) SetLoad(u float64) {
	if p.exited {
		return
	}
	if u <= 0 {
		p.SetDemand(0)
		return
	}
	p.weight = u
	d := u
	if d > 1 {
		d = 1
	}
	// Assign demand directly so a single rebalance covers both changes.
	p.demand = d
	p.host.rebalance()
}

// Stop delivers SIGSTOP: the process keeps its demand but receives no
// CPU until Cont.
func (p *Process) Stop() {
	if p.stopped || p.exited {
		return
	}
	p.stopped = true
	p.host.rebalance()
}

// Cont delivers SIGCONT, resuming a stopped process.
func (p *Process) Cont() {
	if !p.stopped || p.exited {
		return
	}
	p.stopped = false
	p.host.rebalance()
}

// Exit removes the process from the host permanently.
func (p *Process) Exit() {
	if p.exited {
		return
	}
	p.account()
	p.exited = true
	p.rate = 0 // stop accruing CPU time; the table entry is gone
	procs := p.host.procs
	for i, q := range procs {
		if q == p {
			p.host.procs = append(procs[:i], procs[i+1:]...)
			break
		}
	}
	p.host.rebalance()
	if p.onRate != nil {
		p.onRate(0)
	}
}

// RunWork executes `work` reference CPU-seconds on the process, declaring
// full demand for the duration and invoking done at completion. It
// returns the tracker so callers can observe or abort the task.
func (p *Process) RunWork(work float64, done func()) *sim.WorkTracker {
	var tr *sim.WorkTracker
	tr = sim.NewWorkTracker(p.host.k, work, func() {
		p.SetDemand(0)
		p.OnRate(nil)
		if done != nil {
			done()
		}
	})
	p.OnRate(tr.SetRate)
	p.SetDemand(1)
	// SetDemand may have been a no-op if demand was already 1; make sure
	// the tracker sees the current rate either way.
	tr.SetRate(p.rate)
	return tr
}
