// Package vmm implements the "classic" virtual machine monitor at the
// center of the paper: a host OS process that presents a raw machine to
// a guest operating system. The monitor's performance model charges
// virtualization where it actually occurs — trapping and emulating
// privileged instructions, maintaining shadow page tables, switching
// worlds when the host preempts the monitor, and virtualizing device
// I/O — so the paper's measured overheads (≤10% micro, 1-4% macro)
// emerge from mechanism.
package vmm

import (
	"errors"
	"fmt"

	"vmgrid/internal/guest"
	"vmgrid/internal/hostos"
	"vmgrid/internal/obs"
	"vmgrid/internal/sim"
	"vmgrid/internal/storage"
)

// CostModel holds the virtualization cost parameters. See DESIGN.md §5
// for the calibration against the paper's Tables 1-2 and Figure 1.
type CostModel struct {
	// TrapExtra is the added cost of one privileged event (beyond its
	// native cost): trap into the monitor, decode, emulate, return.
	TrapExtra sim.Duration
	// MemTrapExtra is the added cost of one memory-system event (shadow
	// page table update); natively these are free in hardware.
	MemTrapExtra sim.Duration
	// TimerRate and TimerExtra model the periodic timer interrupt every
	// guest must field, each one a small storm of privileged operations.
	TimerRate  float64
	TimerExtra sim.Duration
	// CtxSwitchExtra is the added cost of a guest context switch (page
	// table base changes trap; VMware calls this out explicitly).
	CtxSwitchExtra sim.Duration
	// WorldSwitch is the cost of switching between the VMM world and
	// the host world, paid when the host preempts the monitor.
	WorldSwitch sim.Duration
	// IOExtra is the added per-operation cost of virtual device I/O.
	IOExtra sim.Duration
	// GuestQuantum is the guest scheduler time slice (sets the guest
	// context-switch rate when multiple guest tasks are runnable).
	GuestQuantum sim.Duration
	// InitWork is the CPU work (reference seconds) of starting the
	// monitor process and opening its devices.
	InitWork float64
}

// DefaultCostModel returns the calibration used throughout the
// reproduction (VMware Workstation 3.0a on the reference machine).
func DefaultCostModel() CostModel {
	return CostModel{
		TrapExtra:      5 * sim.Microsecond,
		MemTrapExtra:   5 * sim.Microsecond,
		TimerRate:      100,
		TimerExtra:     50 * sim.Microsecond,
		CtxSwitchExtra: 250 * sim.Microsecond,
		WorldSwitch:    200 * sim.Microsecond,
		IOExtra:        150 * sim.Microsecond,
		GuestQuantum:   10 * sim.Millisecond,
		InitWork:       2.4,
	}
}

// State is the lifecycle state of a VM.
type State int

// VM lifecycle states.
const (
	StateCreated State = iota + 1
	StateInitializing
	StateBooting
	StateRestoring
	StateRunning
	StateSuspending
	StateSuspended
	StateOff
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateInitializing:
		return "initializing"
	case StateBooting:
		return "booting"
	case StateRestoring:
		return "restoring"
	case StateRunning:
		return "running"
	case StateSuspending:
		return "suspending"
	case StateSuspended:
		return "suspended"
	case StateOff:
		return "off"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Errors callers match with errors.Is.
var (
	ErrBadState = errors.New("vmm: operation invalid in current state")
	ErrNoDisk   = errors.New("vmm: no virtual disk attached")
	ErrNoMemImg = errors.New("vmm: no memory image attached")
)

// Config describes a virtual machine to create.
type Config struct {
	// Name labels the VM.
	Name string
	// MemBytes is the guest memory size (also the suspend image size).
	MemBytes int64
	// Disk is the virtual disk backend (persistent clone, COW stack, or
	// remote file).
	Disk storage.Backend
	// MemImage, when set, is where the saved memory state lives: read
	// on restore, written on suspend.
	MemImage storage.Backend
	// DirtyBps, when positive, models the guest's memory dirtying rate
	// (bytes per wall-clock second): after the image has been written
	// in full once, later Suspends write only the bytes dirtied since
	// the image was last in sync (floored at one restore chunk, capped
	// at MemBytes). Zero keeps full-image suspends — the historical
	// behavior. With the chunk plane attached to the backing store,
	// the untouched chunks keep their content keys, so checkpoint
	// staging ships deltas instead of full images.
	DirtyBps int64
	// Cost overrides the cost model (zero value = DefaultCostModel).
	Cost CostModel
	// Trace, when non-nil, records lifecycle spans (init, boot, restore,
	// suspend) and the world-switch-rate gauge.
	Trace *obs.Tracer
	// Ctx, when valid, parents the lifecycle spans under the caller's
	// causal tree (the gatekeeper handler that instantiated this VM).
	Ctx obs.SpanContext
}

// VM is one virtual machine: a monitor process on a host plus the guest
// OS it runs.
type VM struct {
	host *hostos.Host
	proc *hostos.Process
	cfg  Config
	cost CostModel
	os   *guest.OS

	state State
	// abort ends the start in flight with an error; nil when no start
	// is in flight.
	abort func(error)
	act   guest.Activity
	sink  func(rate float64)
	rate  float64

	// imagePrimed is set once a Suspend has written the full memory
	// image to cfg.MemImage — only then can later suspends write dirty
	// deltas on top of a known-complete base.
	imagePrimed bool
	// imageSyncAt is when the image last matched guest memory; the
	// dirty estimate accrues DirtyBps from this instant.
	imageSyncAt sim.Time
}

var _ guest.CPU = (*VM)(nil)

// New creates a VM on host. The guest OS is created attached to it; use
// AdoptGuest to install a migrated guest instead.
func New(host *hostos.Host, cfg Config) (*VM, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("vmm: VM without a name")
	}
	if cfg.MemBytes <= 0 {
		return nil, fmt.Errorf("vmm: VM %q with %d bytes of memory", cfg.Name, cfg.MemBytes)
	}
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCostModel()
	}
	vm := &VM{
		host:  host,
		cfg:   cfg,
		cost:  cfg.Cost,
		state: StateCreated,
	}
	vm.proc = host.Spawn("vmm:" + cfg.Name)
	vm.proc.OnRate(func(float64) { vm.recompute() })
	vm.os = guest.NewOS(vm)
	if cfg.Disk != nil {
		vm.os.Mount("root", cfg.Disk)
	}
	return vm, nil
}

// Name returns the VM name.
func (vm *VM) Name() string { return vm.cfg.Name }

// Host returns the host the monitor runs on.
func (vm *VM) Host() *hostos.Host { return vm.host }

// Proc returns the monitor's host process (for resource control).
func (vm *VM) Proc() *hostos.Process { return vm.proc }

// Guest returns the guest OS.
func (vm *VM) Guest() *guest.OS { return vm.os }

// State returns the lifecycle state.
func (vm *VM) State() State { return vm.state }

// Config returns the creation configuration.
func (vm *VM) Config() Config { return vm.cfg }

// Kernel implements guest.CPU.
func (vm *VM) Kernel() *sim.Kernel { return vm.host.Kernel() }

// IOPenalty implements guest.CPU: device virtualization overhead on top
// of the native driver cost.
func (vm *VM) IOPenalty() sim.Duration {
	return guest.NativeIOPenalty + vm.cost.IOExtra
}

// Off implements guest.CPU.
func (vm *VM) Off() bool { return vm.state == StateOff }

// SetActivity implements guest.CPU.
func (vm *VM) SetActivity(a guest.Activity) {
	vm.act = a
	vm.updateDemand()
	vm.recompute()
}

// OnRate implements guest.CPU.
func (vm *VM) OnRate(fn func(rate float64)) {
	vm.sink = fn
	if fn != nil {
		fn(vm.rate)
	}
}

// Rate implements guest.CPU.
func (vm *VM) Rate() float64 { return vm.rate }

// updateDemand sets the monitor process's host demand from guest
// activity and lifecycle state.
func (vm *VM) updateDemand() {
	switch vm.state {
	case StateRunning, StateBooting, StateRestoring:
		switch {
		case vm.act.Runnable > 0:
			vm.proc.SetDemand(1)
		case vm.act.BgLoad > 0:
			// Only guest-internal background load: the monitor is one
			// host process demanding what the load would use.
			d := vm.act.BgLoad
			if d > 1 {
				d = 1
			}
			vm.proc.SetDemand(d)
		default:
			// Idle guest: timer ticks only.
			vm.proc.SetDemand(0.01)
		}
	case StateInitializing, StateSuspending:
		vm.proc.SetDemand(1)
	default:
		vm.proc.SetDemand(0)
	}
}

// recompute derives the delivered guest work rate from the host rate and
// the virtualization cost model:
//
//	guestRate × (1 + privRate×trap) = hostRate − wallOverheads
//
// Wall-clock overheads (timer emulation, world switches under host
// contention, guest context switches under guest contention) consume the
// monitor's allocation independent of how much guest work retires;
// per-event costs scale with the work itself.
func (vm *VM) recompute() {
	r := vm.proc.Rate()
	deliverable := 0.0
	if vm.guestActive() && (vm.act.Runnable > 0 || vm.act.BgLoad > 0) && r > 0 {
		share := r / vm.host.Capacity()
		wall := vm.cost.TimerRate * vm.cost.TimerExtra.Seconds()
		if vm.host.Runnable() > 1 {
			// The host preempts the monitor roughly once per quantum of
			// monitor execution; each preemption is a world switch out
			// and back.
			wsRate := share / hostos.DefaultQuantum.Seconds()
			wall += wsRate * vm.cost.WorldSwitch.Seconds()
		}
		if vm.act.Contenders() > 1 {
			// Guest context switches at quantum granularity, each one a
			// train of trapped privileged instructions.
			csRate := share / vm.cost.GuestQuantum.Seconds()
			wall += csRate * vm.cost.CtxSwitchExtra.Seconds()
		}
		perEvent := vm.act.PrivPerSec*(guest.NativeCost.Seconds()+vm.cost.TrapExtra.Seconds()) +
			vm.act.MemPerSec*vm.cost.MemTrapExtra.Seconds()
		deliverable = (r - wall*vm.host.Capacity()) / (1 + perEvent)
		if deliverable < 0 {
			deliverable = 0
		}
	}
	if deliverable != vm.rate {
		vm.rate = deliverable
		if vm.sink != nil {
			vm.sink(deliverable)
		}
	}
}

func (vm *VM) guestActive() bool {
	switch vm.state {
	case StateRunning, StateBooting, StateRestoring:
		return true
	default:
		return false
	}
}
