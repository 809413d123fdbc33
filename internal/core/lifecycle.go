package core

import (
	"fmt"

	"vmgrid/internal/gis"
	"vmgrid/internal/gram"
	"vmgrid/internal/obs"
	"vmgrid/internal/storage"
	"vmgrid/internal/vmm"
)

// Shutdown ends the session: the VM powers off, the non-persistent diff
// is discarded, the address returns to the pool, and the registry entry
// disappears. Persistent disks stay in the node's store (they are the
// user's state).
func (s *Session) Shutdown() {
	if s.state == StateDead {
		return
	}
	if s.vm != nil {
		s.vm.PowerOff()
	}
	if s.addr != "" && s.node != nil && s.node.dhcp != nil {
		_ = s.node.dhcp.Release(s.addr)
		s.addr = ""
	}
	// A crashed node's store survives but is unreachable; leave its files
	// for the reboot-time operator. (Shutdown of a crashed session happens
	// when its supervisor gives up on recovery.)
	if s.node != nil && !s.node.crashed {
		for _, f := range []string{s.name + ".cow", s.name + ".mem", s.name + ".zeromem"} {
			if s.node.store.Has(f) {
				_ = s.node.store.Delete(f)
			}
		}
	}
	s.grid.info.Deregister(gis.KindVM, s.name)
	s.releaseSlot()
	s.grid.dropLive(s.name)
	s.state = StateDead
	s.mark("shutdown")
}

// Hibernate checkpoints the session: the guest freezes and its memory
// image lands in the node's store. The session can be woken later (or
// migrated while hibernated).
func (s *Session) Hibernate(done func(error)) error {
	if !s.state.CanHibernate() {
		return fmt.Errorf("%w: hibernate in %q", ErrBadSession, s.state)
	}
	if err := s.vm.Suspend(func(err error) {
		if err == nil {
			s.state = StateHibernated
			s.mark("hibernated")
		}
		if done != nil {
			done(err)
		}
	}); err != nil {
		return err
	}
	return nil
}

// Wake resumes a hibernated session in place, re-reading the saved
// memory image.
func (s *Session) Wake(done func(error)) error {
	if !s.state.CanWake() {
		return fmt.Errorf("%w: wake in %q", ErrBadSession, s.state)
	}
	return s.vm.Start(vmm.WarmRestore, func(err error) {
		if err == nil {
			s.state = StateRunning
			s.mark("woken")
		}
		if done != nil {
			done(err)
		}
	})
}

// Migrate moves the session to another compute node: suspend, transfer
// the memory image and the copy-on-write diff, re-instantiate over the
// target's copy of the base image, resume, and re-attach the network
// and data sessions. The guest — task state included — survives.
//
// The target must be a compute node with a free slot holding the same
// base image (read-only base sharing is what keeps migration traffic
// down to the working set, §3.1).
func (s *Session) Migrate(targetName string, done func(error)) error {
	if !s.state.CanMigrate() || s.migrating {
		return fmt.Errorf("%w: migrate in %q", ErrBadSession, s.state)
	}
	if s.cow == nil {
		return fmt.Errorf("core: only non-persistent sessions migrate via diff transfer")
	}
	target := s.grid.nodes[targetName]
	if target == nil {
		return fmt.Errorf("%w: %q", ErrUnknownNode, targetName)
	}
	if target.gk == nil || target.slots <= 0 {
		return fmt.Errorf("core: %q cannot accept a VM (no gatekeeper or slots)", targetName)
	}
	if _, ok := target.Image(s.cfg.Image); !ok {
		return fmt.Errorf("%w: base image %q not on target %s", ErrNoImage, s.cfg.Image, targetName)
	}

	// gen pins the incarnation this migration moves. If the source
	// crashes mid-transfer and a supervisor failover restores the
	// session elsewhere (bumping gen), the half-done migration must
	// abort instead of minting a second live incarnation.
	gen := s.gen
	s.migrating = true
	// The migration span covers suspend, state transfer, and arrival;
	// it parents under the session's causal root so balancer moves show
	// up on the session's critical path.
	msp := s.grid.tracer.BeginChild(s.sctx, s.name, "migration", "migrate:"+targetName)
	finish := func(err error) {
		s.migrating = false
		msp.EndErr(err)
		if done != nil {
			done(err)
		}
	}
	superseded := func() bool { return s.gen != gen || !s.state.CanMigrate() }

	transfer := func() {
		if superseded() {
			finish(fmt.Errorf("%w: migration superseded mid-transfer", ErrFencedEpoch))
			return
		}
		src := s.node
		// Move the session state files: memory image and COW diff.
		memFile := s.name + ".mem"
		diffFile := s.name + ".cow"
		if !src.store.Has(memFile) {
			finish(fmt.Errorf("core: migrate %s: no saved memory image", s.name))
			return
		}
		stageNext := func(file string, next func(error)) {
			if !src.store.Has(file) {
				next(nil)
				return
			}
			if err := gram.Stage(s.grid.net, src.name, src.store, file,
				target.name, target.store, file, next); err != nil {
				next(err)
			}
		}
		stageNext(memFile, func(err error) {
			if err != nil {
				finish(err)
				return
			}
			stageNext(diffFile, func(err error) {
				if err != nil {
					finish(err)
					return
				}
				if superseded() {
					finish(fmt.Errorf("%w: migration superseded mid-transfer", ErrFencedEpoch))
					return
				}
				s.arrive(target, msp.Context(), finish)
			})
		})
	}

	if s.state == StateRunning {
		s.mark("migrate-suspend")
		if err := s.vm.Suspend(func(err error) {
			if err != nil {
				finish(err)
				return
			}
			transfer()
		}); err != nil {
			return err
		}
		return nil
	}
	// Already hibernated: state is on disk, transfer directly.
	s.mark("migrate-transfer")
	transfer()
	return nil
}

// MigrateFenced is Migrate fenced through the epoch machinery: the
// session's fencing epoch is bumped through a quorum write (from the
// front end) before any state moves, so a balancer-initiated migration
// can never race a partition failover — the failover's own quorum bump
// supersedes this one, the data-plane guards see the newer epoch, and
// whichever operation lost the race aborts instead of minting a second
// live incarnation. Returns ErrNoQuorum without moving anything when
// the front end sits on the minority side of a partition.
func (s *Session) MigrateFenced(targetName string, done func(error)) error {
	if !s.state.CanMigrate() || s.migrating {
		return fmt.Errorf("%w: fenced migrate in %q", ErrBadSession, s.state)
	}
	old := s.epoch
	qsp := s.grid.tracer.BeginChild(s.sctx, s.name, "quorum", "epoch-bump")
	ep, err := s.grid.info.BumpEpochFrom(s.cfg.FrontEnd, s.name)
	qsp.EndErr(err)
	if err != nil {
		return err
	}
	s.adoptEpoch(old, ep)
	return s.Migrate(targetName, func(err error) {
		if err == nil && s.epoch != ep {
			// A failover bumped past us while state was in flight; the
			// internal generation guard should already have aborted, but
			// never report a superseded migration as success.
			err = ErrFencedEpoch
		}
		if done != nil {
			done(err)
		}
	})
}

// adoptEpoch moves the session — same incarnation, same guest — to a
// new fencing epoch at the start of a fenced migration. Supervisors in
// charge follow to the new epoch and remember the old one as carried:
// results of tasks submitted under a carried epoch still belong to the
// one true incarnation (the guest survives a migration) and must not
// be fenced as zombie results. A real failover clears the carried set,
// because a new incarnation's history starts from its checkpoint.
func (s *Session) adoptEpoch(old, ep int64) {
	s.epoch = ep
	for _, sup := range s.grid.supervisors {
		if c := sup.charge(s.name); c != nil {
			c.epoch = ep
			if c.carried == nil {
				c.carried = make(map[int64]bool)
			}
			c.carried[old] = true
		}
	}
}

// restoreFrom re-instantiates a crashed session on target from a
// checkpoint whose state files (s.name+".mem" and s.name+".cow") have
// already been staged into target's store. Unlike arrive, there is no
// guest to adopt — the crashed guest's post-checkpoint state is gone —
// so the VM warm-restores with a fresh guest and the caller (the
// supervisor) resubmits the remaining work. writtenPages is the COW
// page list recorded at checkpoint time.
//
// The session must be in the "recovering" state (the supervisor's
// failover path sets it) and the caller must have reserved a slot on
// target.
func (s *Session) restoreFrom(target *Node, writtenPages []int64, rctx obs.SpanContext, finish func(error)) {
	if s.state != StateRecovering {
		finish(fmt.Errorf("%w: restore in %q", ErrBadSession, s.state))
		return
	}
	info, ok := target.Image(s.cfg.Image)
	if !ok {
		finish(fmt.Errorf("%w: base image %q not on target %s", ErrNoImage, s.cfg.Image, target.name))
		return
	}
	base, err := target.store.Open(info.DiskFile())
	if err != nil {
		finish(err)
		return
	}
	diff, err := target.store.OpenOrCreate(s.name + ".cow")
	if err != nil {
		finish(err)
		return
	}
	cow := storage.NewCowDisk(base, diff)
	cow.MarkWritten(writtenPages)

	localMem, err := target.store.Open(s.name + ".mem")
	if err != nil {
		finish(err)
		return
	}
	mem := &memBackend{restore: localMem, local: localMem, dirty: true}

	vm, err := vmm.New(target.host, vmm.Config{
		Name:     s.name,
		MemBytes: s.cfg.MemBytes,
		Disk:     cow,
		MemImage: mem,
		DirtyBps: s.cfg.DirtyBps,
		Trace:    s.grid.tracer,
		Ctx:      rctx,
	})
	if err != nil {
		finish(err)
		return
	}

	s.node = target
	s.vm = vm
	s.cow = cow
	s.mem = mem
	s.gen++ // new incarnation: fences held by the old one go stale

	if err := vm.Start(vmm.WarmRestore, func(err error) {
		if err != nil {
			finish(err)
			return
		}
		// The restore read the same file suspends will write, so the
		// image is in sync: the next checkpoint can be a delta.
		vm.PrimeImage()
		if err := s.connect(); err != nil {
			finish(err)
			return
		}
		s.state = StateRunning
		s.mark("recovered")
		_ = s.grid.info.Register(gis.KindVM, s.name, map[string]any{
			gis.AttrHost: s.node.name,
			gis.AttrAddr: s.addr,
			"user":       s.cfg.User,
			"image":      s.cfg.Image,
		}, 0)
		finish(nil)
	}); err != nil {
		finish(err)
	}
}

// arrive re-instantiates the session on the target node after its state
// files landed there. mctx is the migration span, under which the new
// VM's restore work parents.
func (s *Session) arrive(target *Node, mctx obs.SpanContext, finish func(error)) {
	oldNode := s.node
	oldVM := s.vm
	oldGuest := s.vm.Guest()
	writtenPages := s.cow.WrittenPages()

	info, _ := target.Image(s.cfg.Image)
	base, err := target.store.Open(info.DiskFile())
	if err != nil {
		finish(err)
		return
	}
	diff, err := target.store.OpenOrCreate(s.name + ".cow")
	if err != nil {
		finish(err)
		return
	}
	cow := storage.NewCowDisk(base, diff)
	cow.MarkWritten(writtenPages)

	localMem, err := target.store.Open(s.name + ".mem")
	if err != nil {
		finish(err)
		return
	}
	mem := &memBackend{restore: localMem, local: localMem, dirty: true}

	vm, err := vmm.New(target.host, vmm.Config{
		Name:     s.name,
		MemBytes: s.cfg.MemBytes,
		Disk:     cow,
		MemImage: mem,
		DirtyBps: s.cfg.DirtyBps,
		Trace:    s.grid.tracer,
		Ctx:      mctx,
	})
	if err != nil {
		finish(err)
		return
	}
	oldVM.PowerOff()
	if err := vm.AdoptGuest(oldGuest); err != nil {
		finish(err)
		return
	}

	// Hand over bookkeeping. The new slot is reserved through a release
	// closure so a later crash of either node cannot double-free it.
	newRelease := target.reserveSlot()
	if s.addr != "" && oldNode.dhcp != nil {
		_ = oldNode.dhcp.Release(s.addr)
		s.addr = ""
	}
	s.releaseSlot()
	s.slotRelease = newRelease
	for _, f := range []string{s.name + ".cow", s.name + ".mem", s.name + ".zeromem"} {
		if oldNode.store.Has(f) {
			_ = oldNode.store.Delete(f)
		}
	}
	s.node = target
	s.vm = vm
	s.cow = cow
	s.mem = mem
	s.gen++ // new incarnation: fences held by the old one go stale
	myGen := s.gen

	if err := vm.Start(vmm.WarmRestore, func(err error) {
		if err != nil {
			finish(err)
			return
		}
		// The target may have crashed (or a failover superseded us)
		// while the VM was coming up; resuming would resurrect a dead
		// incarnation.
		if s.gen != myGen || s.state == StateCrashed || s.state == StateDead {
			finish(fmt.Errorf("%w: migration superseded at arrival", ErrFencedEpoch))
			return
		}
		// Restore source == suspend target here too: arm delta suspends.
		vm.PrimeImage()
		if err := s.connect(); err != nil {
			finish(err)
			return
		}
		s.state = StateRunning
		s.mark("migrated")
		_ = s.grid.info.Register(gis.KindVM, s.name, map[string]any{
			gis.AttrHost: s.node.name,
			gis.AttrAddr: s.addr,
			"user":       s.cfg.User,
			"image":      s.cfg.Image,
		}, 0)
		finish(nil)
	}); err != nil {
		finish(err)
	}
}
