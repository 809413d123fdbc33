package core

import (
	"fmt"
	"slices"

	"vmgrid/internal/gis"
	"vmgrid/internal/gram"
	"vmgrid/internal/obs"
	"vmgrid/internal/storage"
	"vmgrid/internal/vmm"
	"vmgrid/internal/vnet"
)

// Shutdown ends the session: the VM powers off, the non-persistent diff
// is discarded, the address returns to the pool, and the registry entry
// disappears. Persistent disks stay in the node's store (they are the
// user's state).
func (s *Session) Shutdown() {
	if s.state == StateDead {
		return
	}
	in := s.cur
	if in != nil {
		in.stop()
		// A crashed node's store survives but is unreachable; leave its
		// files for the reboot-time operator. (Shutdown of a crashed
		// session happens when its supervisor gives up on recovery.)
		if !in.node.crashed {
			dropFiles(in.node.store, s.name+".cow", s.name+".mem", s.name+".zeromem")
		}
	}
	s.grid.info.Deregister(gis.KindVM, s.name)
	if in != nil {
		in.retire()
	}
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
	if err := s.cur.vm.Suspend(func(err error) {
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
	return s.cur.vm.Start(vmm.WarmRestore, func(err error) {
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
// and data sessions. The guest — task state included — survives. A
// migration that fails after suspending a running guest resumes it in
// place.
//
// The target must be another compute node with a free slot holding the
// same base image (read-only base sharing is what keeps migration
// traffic down to the working set, §3.1).
func (s *Session) Migrate(targetName string, done func(error)) error {
	if !s.state.CanMigrate() || s.migrating {
		return fmt.Errorf("%w: migrate in %q", ErrBadSession, s.state)
	}
	in := s.cur
	if in.cow == nil {
		return fmt.Errorf("core: only non-persistent sessions migrate via diff transfer")
	}
	target := s.grid.nodes[targetName]
	if target == nil {
		return fmt.Errorf("%w: %q", ErrUnknownNode, targetName)
	}
	if target == in.node {
		return fmt.Errorf("core: %s already runs on %q", s.name, targetName)
	}
	if target.gk == nil || target.Slots() <= 0 {
		return fmt.Errorf("core: %q cannot accept a VM (no gatekeeper or slots)", targetName)
	}
	if _, ok := target.Image(s.cfg.Image); !ok {
		return fmt.Errorf("%w: base image %q not on target %s", ErrNoImage, s.cfg.Image, targetName)
	}

	// in is the incarnation this migration moves. If the source crashes
	// mid-transfer and a supervisor failover restores the session
	// elsewhere (a new current incarnation), the half-done migration
	// must abort instead of minting a second live incarnation.
	s.migrating = true
	suspended := false // this migration froze a running guest
	// The migration span covers suspend, state transfer, and arrival;
	// it parents under the session's causal root so balancer moves show
	// up on the session's critical path.
	msp := s.grid.tracer.BeginChild(s.sctx, s.name, "migration", "migrate:"+targetName)
	finish := func(err error) {
		s.migrating = false
		if err != nil && suspended && s.cur == in && s.state == StateRunning {
			// Resume the guest this migration froze. Unpause refuses
			// only a VM that is no longer suspended: nothing to resume.
			_ = in.vm.Unpause()
		}
		msp.EndErr(err)
		if done != nil {
			done(err)
		}
	}
	superseded := func() error {
		if s.cur != in || !s.state.CanMigrate() {
			return fmt.Errorf("%w: migration superseded mid-transfer", ErrFencedEpoch)
		}
		return nil
	}

	transfer := func() {
		if err := superseded(); err != nil {
			finish(err)
			return
		}
		// Move the session state files: memory image and COW diff.
		s.moveState(in.node, func(ext string) string { return s.name + ext }, target, func(err error) {
			if err == nil {
				err = superseded()
			}
			if err != nil {
				finish(err)
				return
			}
			s.arrive(target, msp.Context(), finish)
		})
	}

	if s.state == StateRunning {
		s.mark("migrate-suspend")
		err := in.vm.Suspend(func(err error) {
			if err != nil {
				finish(err)
				return
			}
			suspended = true
			transfer()
		})
		if err != nil {
			// Refused outright (a supervisor checkpoint holds the VM
			// suspended): nothing was frozen or moved, so the session is
			// free again and the caller, not done, hears the error.
			s.migrating = false
			msp.EndErr(err)
		}
		return err
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
			// superseded-incarnation guard should already have aborted,
			// but never report a superseded migration as success.
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

// restoreFrom re-instantiates a crashed session as in, an incarnation
// whose slot the caller (the supervisor's failover) took, from a
// checkpoint whose state files (s.name+".mem" and s.name+".cow") have
// already been staged into its node's store. Unlike arrive, there is
// no guest to adopt — the crashed guest's post-checkpoint state is
// gone — so the VM warm-restores with a fresh guest and the caller
// resubmits the remaining work. writtenPages is the COW page list
// recorded at checkpoint time. The session must be in the "recovering"
// state (the failover path sets it).
func (s *Session) restoreFrom(in *incarnation, writtenPages []int64, rctx obs.SpanContext, finish func(error)) {
	if s.state != StateRecovering {
		finish(fmt.Errorf("%w: restore in %q", ErrBadSession, s.state))
		return
	}
	if err := s.vmFromState(in, writtenPages, rctx); err != nil {
		finish(err)
		return
	}
	s.online(in, "recovered", nil, finish)
}

// arrive re-instantiates the session on the target node after its state
// files landed there. mctx is the migration span, under which the new
// VM's restore work parents.
func (s *Session) arrive(target *Node, mctx obs.SpanContext, finish func(error)) {
	old := s.cur
	in := &incarnation{node: target}
	if err := s.vmFromState(in, old.cow.WrittenPages(), mctx); err != nil {
		finish(err)
		return
	}
	old.stop()
	if err := in.vm.AdoptGuest(old.vm.Guest()); err != nil {
		finish(err)
		return
	}

	// Hand over: the target's slot is taken before the old host's
	// address and slot go back.
	in.takeSlot()
	old.retire()
	dropFiles(old.node.store, s.name+".cow", s.name+".mem", s.name+".zeromem")
	s.online(in, "migrated", func() error {
		// The target may have crashed (or a failover superseded this
		// incarnation) while the VM was coming up; resuming would
		// resurrect a dead incarnation.
		if s.cur != in || s.state == StateCrashed || s.state == StateDead {
			return fmt.Errorf("%w: migration superseded at arrival", ErrFencedEpoch)
		}
		return nil
	}, finish)
}

// incarnation is one VM of a session on one host: the node, the VM
// (which holds its memory image), the COW disk, and its network
// identity. It holds one
// of the node's slots while the node lists it. The session's current
// incarnation is Session.cur; one a partition marooned is kept by the
// supervisor, under the fencing epoch it ran with, until it surfaces.
// retire is the only teardown.
type incarnation struct {
	node   *Node
	vm     *vmm.VM
	cow    *storage.CowDisk
	addr   string
	tunnel *vnet.Tunnel
	// epoch is the fencing epoch a marooned incarnation ran under: the
	// token that names it when it surfaces.
	epoch int64
}

// takeSlot lists in on its node, where it now holds a slot, and
// re-advertises the node.
func (in *incarnation) takeSlot() {
	in.node.incs = append(in.node.incs, in)
	in.node.advertise()
}

// stop powers the VM off unless it already is.
func (in *incarnation) stop() {
	if in.vm != nil && in.vm.State() != vmm.StateOff {
		in.vm.PowerOff()
	}
}

// retire tears the incarnation down: the VM stops and, while its node
// is up and still lists it, the address and the slot go back and the
// node re-advertises. A crash takes the pool and the slots, and a
// reboot lists nothing, so a stale incarnation returns nothing. Safe to
// call again.
func (in *incarnation) retire() {
	in.stop()
	n := in.node
	i := slices.Index(n.incs, in)
	if i < 0 || n.crashed {
		return
	}
	if in.addr != "" && n.dhcp != nil {
		_ = n.dhcp.Release(in.addr)
		in.addr = ""
	}
	n.incs = slices.Delete(n.incs, i, i+1)
	n.advertise()
}

// vmFromState builds in's VM over the session state staged on its
// node: the COW diff <s>.cow over the node's copy of the shared base
// image (pages are the diff's written pages) and the memory image
// <s>.mem, which later suspends overwrite in place.
func (s *Session) vmFromState(in *incarnation, pages []int64, ctx obs.SpanContext) error {
	target := in.node
	info, ok := target.Image(s.cfg.Image)
	if !ok {
		return fmt.Errorf("%w: base image %q not on target %s", ErrNoImage, s.cfg.Image, target.name)
	}
	base, err := target.store.Open(info.DiskFile())
	if err != nil {
		return err
	}
	diff, err := target.store.OpenOrCreate(s.name + ".cow")
	if err != nil {
		return err
	}
	in.cow = storage.NewCowDisk(base, diff)
	in.cow.MarkWritten(pages)
	localMem, err := target.store.Open(s.name + ".mem")
	if err != nil {
		return err
	}
	mem := &memBackend{restore: localMem, local: localMem, dirty: true}
	in.vm, err = s.newVM(target, in.cow, mem, ctx)
	return err
}

// online makes in the session's current incarnation and warm-restores
// it; fences held by the one before go stale. Once the VM is up — and
// check, when non-nil, still passes — the session reconnects, runs
// again, marks step and is advertised.
func (s *Session) online(in *incarnation, step string, check func() error, finish func(error)) {
	s.cur = in
	if err := in.vm.Start(vmm.WarmRestore, func(err error) {
		if err == nil && check != nil {
			err = check()
		}
		if err == nil {
			// The restore read the same file suspends will write, so the
			// image is in sync: the next suspend can be a delta.
			in.vm.PrimeImage()
			err = s.connect()
		}
		if err != nil {
			finish(err)
			return
		}
		s.state = StateRunning
		s.mark(step)
		s.advertise()
		finish(nil)
	}); err != nil {
		finish(err)
	}
}

// moveState stages the session's state pair from one node's store onto
// another's as <s>.mem and <s>.cow; srcName names each state file (by
// its extension) in from's store. The target's stale copies go first,
// both before either file moves: a crashed incarnation's files survive
// its node's reboot.
func (s *Session) moveState(from *Node, srcName func(ext string) string, to *Node, done func(error)) {
	dropFiles(to.store, s.name+".mem", s.name+".cow")
	stagePair(func(ext string, next func(error)) {
		s.grid.stage(from, srcName(ext), to, s.name+ext, next)
	}, done)
}

// stagePair moves a session's state pair with stage, one file at a
// time: the memory image (".mem"), then the COW diff (".cow"). done
// gets the first error, or nil once both landed.
func stagePair(stage func(ext string, done func(error)), done func(error)) {
	stage(".mem", func(err error) {
		if err != nil {
			done(err)
			return
		}
		stage(".cow", done)
	})
}

// stage copies file from one node's store into another's as asName
// through gram.Stage; a refused stage reports through done too.
func (g *Grid) stage(from *Node, file string, to *Node, asName string, done func(error)) {
	if err := gram.Stage(g.net, from.name, from.store, file, to.name, to.store, asName, done); err != nil {
		done(err)
	}
}

// dropFiles deletes whichever of the named files st holds.
func dropFiles(st *storage.Store, names ...string) {
	for _, f := range names {
		if st.Has(f) {
			_ = st.Delete(f)
		}
	}
}
