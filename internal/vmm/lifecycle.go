package vmm

import (
	"fmt"

	"vmgrid/internal/guest"
	"vmgrid/internal/obs"
)

// StartMode selects how a VM comes up.
type StartMode int

// Start modes, matching Table 2's two instantiation paths.
const (
	// ColdBoot boots the guest OS from the virtual disk ("VM-reboot").
	ColdBoot StartMode = iota + 1
	// WarmRestore loads a saved memory image and resumes the guest from
	// its post-boot state ("VM-restore").
	WarmRestore
)

// String names the mode.
func (m StartMode) String() string {
	switch m {
	case ColdBoot:
		return "reboot"
	case WarmRestore:
		return "restore"
	default:
		return fmt.Sprintf("StartMode(%d)", int(m))
	}
}

// restoreChunk is the unit in which the monitor pages a saved memory
// image back in.
const restoreChunk int64 = 1 << 20

// Start brings the VM up. done receives nil once the guest is running
// (booted or resumed), or an error if the start fails or PowerOff ends
// it. Start returns an error immediately if the VM is not freshly
// created or lacks the needed state files.
func (vm *VM) Start(mode StartMode, done func(error)) error {
	if vm.state != StateCreated && vm.state != StateOff && vm.state != StateSuspended {
		return fmt.Errorf("%w: start in %v", ErrBadState, vm.state)
	}
	if vm.cfg.Disk == nil {
		return ErrNoDisk
	}
	if mode == WarmRestore && vm.cfg.MemImage == nil {
		return ErrNoMemImg
	}

	// sp is the phase span open now. ended marks a start that finished,
	// failed or was powered off; its pending work is then ignored.
	var sp obs.Span
	ended := false
	finish := func(err error) {
		if ended {
			return
		}
		ended, vm.abort = true, nil
		sp.EndErr(err)
		if err == nil {
			vm.state = StateRunning
		} else {
			vm.state = StateOff
		}
		vm.updateDemand()
		vm.recompute()
		if done != nil {
			done(err)
		}
	}
	vm.abort = finish

	// Phase 1: the monitor process itself starts up (CPU work on the
	// host, so a loaded host starts VMs slower).
	vm.state = StateInitializing
	vm.updateDemand()
	sp = vm.cfg.Trace.BeginChild(vm.cfg.Ctx, vm.cfg.Name, "vmm", "init")
	vm.proc.RunWork(vm.cost.InitWork, func() {
		if ended {
			return
		}
		sp.End()
		sp = obs.Span{}
		// Re-register the rate hook that RunWork cleared.
		vm.proc.OnRate(func(float64) { vm.recompute() })
		switch mode {
		case ColdBoot:
			vm.state = StateBooting
			vm.updateDemand()
			vm.recompute()
			sp = vm.cfg.Trace.BeginChild(vm.cfg.Ctx, vm.cfg.Name, "vmm", "boot")
			if err := vm.os.Boot(guest.DefaultBoot(), finish); err != nil {
				finish(fmt.Errorf("vmm %q: %w", vm.cfg.Name, err))
			}
		case WarmRestore:
			vm.state = StateRestoring
			vm.updateDemand()
			vm.recompute()
			sp = vm.cfg.Trace.BeginChild(vm.cfg.Ctx, vm.cfg.Name, "vmm", "restore")
			// Stream the saved memory image back in through whatever
			// backend holds it (local file or grid virtual file system).
			streamMemImage(vm.cfg.MemBytes, vm.cfg.MemImage.ReadSequential, func() {
				if ended {
					return
				}
				vm.os.MarkBooted()
				if err := vm.os.ResumeWarm(guest.DefaultResume(), finish); err != nil {
					finish(fmt.Errorf("vmm %q: %w", vm.cfg.Name, err))
				}
			})
		default:
			finish(fmt.Errorf("vmm %q: unknown start mode %v", vm.cfg.Name, mode))
		}
	})
	return nil
}

// streamMemImage moves [0, limit) of the memory image through xfer one
// restoreChunk at a time, then calls done. One chunk is in flight at a
// time, so the continuation is bound once per stream, not per chunk.
func streamMemImage(limit int64, xfer func(off, n int64, done func()), done func()) {
	var off, n int64
	var step func()
	step = func() {
		off += n
		if off >= limit {
			done()
			return
		}
		n = min(restoreChunk, limit-off)
		xfer(off, n, step)
	}
	step()
}

// Suspend checkpoints the running guest: its memory is written to the
// memory image backend and the VM stops consuming CPU. The guest's task
// state is preserved in place, so a later Start(WarmRestore) — possibly
// on another host after the state files are transferred — continues the
// computation.
func (vm *VM) Suspend(done func(error)) error {
	if vm.state != StateRunning {
		return fmt.Errorf("%w: suspend in %v", ErrBadState, vm.state)
	}
	if vm.cfg.MemImage == nil {
		return ErrNoMemImg
	}
	vm.state = StateSuspending
	vm.updateDemand()
	vm.recompute() // freezes guest tasks at rate 0
	sp := vm.cfg.Trace.BeginChild(vm.cfg.Ctx, vm.cfg.Name, "vmm", "suspend")
	streamMemImage(vm.dirtyBytes(), vm.cfg.MemImage.Write, func() {
		sp.End()
		vm.imagePrimed = true
		vm.imageSyncAt = vm.Kernel().Now()
		vm.state = StateSuspended
		vm.updateDemand()
		if done != nil {
			done(nil)
		}
	})
	return nil
}

// PrimeImage marks the memory image as exactly matching guest memory
// right now, arming delta suspends. Callers must guarantee that the
// backend a future Suspend writes holds the guest's full memory — true
// after a WarmRestore whose restore source IS the suspend target (the
// migration-arrival and failover-restore paths, where the staged
// session file serves both roles), never for a fresh session whose
// private file is still empty.
func (vm *VM) PrimeImage() {
	vm.imagePrimed = true
	vm.imageSyncAt = vm.Kernel().Now()
}

// dirtyBytes estimates how much of the memory image a Suspend must
// rewrite. Without dirty-rate modeling (or before the first full
// write), that is everything; afterwards it is the bytes the guest
// could have dirtied since the image was last in sync, floored at one
// restore chunk so a suspend always writes something.
func (vm *VM) dirtyBytes() int64 {
	size := vm.cfg.MemBytes
	if vm.cfg.DirtyBps <= 0 || !vm.imagePrimed {
		return size
	}
	elapsed := vm.Kernel().Now().Sub(vm.imageSyncAt).Seconds()
	dirty := restoreChunk + int64(float64(vm.cfg.DirtyBps)*elapsed)
	if dirty > size {
		dirty = size
	}
	return dirty
}

// Unpause resumes a suspended VM in place (no memory image read: the
// pages are still resident). For cross-host resume use Start(WarmRestore)
// on a new VM that adopted the guest.
func (vm *VM) Unpause() error {
	if vm.state != StateSuspended {
		return fmt.Errorf("%w: unpause in %v", ErrBadState, vm.state)
	}
	vm.state = StateRunning
	vm.updateDemand()
	vm.recompute()
	return nil
}

// PowerOff stops the VM. Guest state is abandoned (non-persistent
// sessions discard their COW diff at this point). Powering off a VM
// still starting ends the start: its done gets ErrBadState.
func (vm *VM) PowerOff() {
	if vm.abort != nil {
		vm.abort(fmt.Errorf("%w: powered off while %v", ErrBadState, vm.state))
		return
	}
	vm.state = StateOff
	vm.updateDemand()
	vm.recompute()
}

// AdoptGuest replaces the VM's guest OS with one carried over from
// another VM — the memory-state half of migration. The guest's CPU
// provider is rebound to this VM; its mounts and task state come along.
// Valid only before the VM starts.
func (vm *VM) AdoptGuest(os *guest.OS) error {
	if vm.state != StateCreated {
		return fmt.Errorf("%w: adopt guest in %v", ErrBadState, vm.state)
	}
	vm.os = os
	os.Rebind(vm)
	if vm.cfg.Disk != nil {
		os.Mount("root", vm.cfg.Disk)
	}
	return nil
}
