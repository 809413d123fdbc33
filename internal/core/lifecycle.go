package core

import (
	"errors"
	"fmt"
	"slices"

	"vmgrid/internal/gis"
	"vmgrid/internal/gram"
	"vmgrid/internal/obs"
	"vmgrid/internal/sim"
	"vmgrid/internal/storage"
	"vmgrid/internal/vmm"
	"vmgrid/internal/vnet"
)

// op is the one operation a session has in flight (Session.op): its
// start, a migration, a supervisor checkpoint or a failover. Entry
// points refuse to begin one while another is in flight. A failover
// supersedes the op it finds: that op's continuations run on, but end
// only their own record. Shutdown cancels it.
type op struct {
	kind opKind
	xfer gram.Transfer // the op's stages: a cancel reaches the one in flight
	// wait is a start's pending step, and abort ends the start when a
	// cancel lands there (nil once the start is past its steps).
	wait  sim.EventID
	abort func(error)
}

type opKind int

const (
	opStart opKind = iota + 1
	opMigrate
	opCheckpoint
	opFailover
)

// errShutDown is what an operation that Shutdown cancelled reports.
var errShutDown = fmt.Errorf("%w: shut down", ErrBadSession)

// is reports whether o is an op of the given kind (false for no op).
func (o *op) is(kind opKind) bool { return o != nil && o.kind == kind }

// cancel stops o, if any, where it stands: its stage in flight sends
// nothing more and fails, and a pending start step never runs (the
// start ends at once).
func (o *op) cancel(k *sim.Kernel) {
	if o == nil {
		return
	}
	o.xfer.Cancel()
	k.Cancel(o.wait)
	if o.abort != nil {
		o.abort(errShutDown)
	}
}

// begin makes a new op of the given kind the session's op in flight.
func (s *Session) begin(kind opKind) *op {
	o := &op{kind: kind}
	s.op = o
	return o
}

// end ends o if it is still the session's op.
func (s *Session) end(o *op) {
	if s.op == o {
		s.op = nil
	}
}

// opErr reports errShutDown once o is no longer the session's op: the
// check for a continuation a cancel cannot reach, such as a GRAM reply
// already on the wire.
func (s *Session) opErr(o *op) error {
	if s.op != o {
		return errShutDown
	}
	return nil
}

// Shutdown ends the session: the VM powers off, the session's files
// leave the node's store, the address returns to the pool, and the
// registry entry disappears. A persistent disk stays in the node's
// store (it is the user's state). A supervised session's checkpoint
// slots leave the stable node. The op in flight is cancelled: a start
// ends and CreateSession's done gets ErrBadSession.
func (s *Session) Shutdown() {
	if s.state == StateDead {
		return
	}
	o := s.op
	s.op = nil
	in := s.cur
	if in != nil {
		in.stop()
		s.dropNodeFiles(in.node)
	}
	if c := s.charge; c != nil {
		c.dropCheckpoints()
	}
	s.grid.info.Deregister(gis.KindVM, s.name)
	if in != nil {
		in.retire()
	}
	s.grid.dropLive(s.name)
	s.state = StateDead
	s.mark("shutdown")
	o.cancel(s.grid.k)
}

// Hibernate checkpoints the session: the guest freezes and its memory
// image lands in the node's store. The session can be woken later (or
// migrated while hibernated).
func (s *Session) Hibernate(done func(error)) error {
	if !s.state.CanHibernate() {
		return fmt.Errorf("%w: hibernate in %q", ErrBadSession, s.state)
	}
	return s.cur.vm.Suspend(func(err error) {
		if err == nil {
			s.state = StateHibernated
			s.mark("hibernated")
		}
		if done != nil {
			done(err)
		}
	})
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
	if !s.state.CanMigrate() || s.op != nil {
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
	o := s.begin(opMigrate)
	suspended := false // this migration froze a running guest
	// The migration span covers suspend, state transfer, and arrival;
	// it parents under the session's causal root so balancer moves show
	// up on the session's critical path.
	msp := s.grid.tracer.BeginChild(s.sctx, s.name, "migration", "migrate:"+targetName)
	finish := func(err error) {
		s.end(o)
		if errors.Is(err, gram.ErrCancelled) {
			// Shutdown cancelled the move: what landed on the target goes.
			s.dropNodeFiles(target)
		}
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
		s.moveState(o, in.node, func(ext string) string { return s.name + ext }, target, func(err error) {
			if err == nil {
				err = superseded()
			}
			if err != nil {
				finish(err)
				return
			}
			s.arrive(o, target, msp.Context(), finish)
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
			// Refused outright: nothing was frozen or moved, so the
			// session is free again and the caller, not done, hears the
			// error.
			s.end(o)
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
	if !s.state.CanMigrate() || s.op != nil {
		return fmt.Errorf("%w: fenced migrate in %q", ErrBadSession, s.state)
	}
	qsp := s.grid.tracer.BeginChild(s.sctx, s.name, "quorum", "epoch-bump")
	ep, err := s.grid.info.BumpEpochFrom(s.cfg.FrontEnd, s.name)
	qsp.EndErr(err)
	if err != nil {
		return err
	}
	// Same incarnation, same guest: a supervised task submitted under an
	// older epoch still completes (see charge.since). A failover that
	// bumps past ep supersedes the migration's op, which the migration
	// checks before it resumes the guest.
	s.epoch = ep
	return s.Migrate(targetName, done)
}

// arrive re-instantiates the session on the target node after the
// migration o's state files landed there. mctx is the migration span,
// under which the new VM's restore work parents.
func (s *Session) arrive(o *op, target *Node, mctx obs.SpanContext, finish func(error)) {
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
	dropFiles(old.node.store, s.nodeFiles()...)
	s.online(in, "migrated", func() error {
		// A failover may have superseded the migration while the VM was
		// coming up (a crash or Shutdown ends the VM's start instead):
		// resuming would resurrect a dead incarnation.
		if s.op != o {
			return fmt.Errorf("%w: migration superseded at arrival", ErrFencedEpoch)
		}
		return nil
	}, finish)
}

// incarnation is one VM of a session on one host: the node, the VM
// (which holds its memory image), the COW disk, and its network
// identity. It holds one of the node's slots while the node lists it.
// The session's current incarnation is Session.cur; one a partition
// marooned is kept by the session's charge, under the fencing epoch it
// ran with, until it surfaces. retire is the only teardown.
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
// another's as <s>.mem and <s>.cow for o; srcName names each state file
// (by its extension) in from's store. The target's stale copies go
// first, both before either file moves: a crashed incarnation's files
// survive its node's reboot.
func (s *Session) moveState(o *op, from *Node, srcName func(ext string) string, to *Node, done func(error)) {
	dropFiles(to.store, s.name+".mem", s.name+".cow")
	stagePair(func(ext string, next func(error)) {
		s.grid.stage(&o.xfer, from, srcName(ext), to, s.name+ext, next)
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

// stage copies file from one node's store into another's as asName, one
// of t's stages; a refused stage reports through done too.
func (g *Grid) stage(t *gram.Transfer, from *Node, file string, to *Node, asName string, done func(error)) {
	if err := t.Stage(g.net, from.name, from.store, file, to.name, to.store, asName, done); err != nil {
		done(err)
	}
}

// nodeFiles names the files the session keeps in its node's store: the
// state pair <s>.cow and <s>.mem, the cold-restore placeholder
// <s>.zeromem, the private memory-image copy <s>.memimg and, unless the
// disk is persistent (then it is the user's state), the private disk
// copy <s>.disk.
func (s *Session) nodeFiles() []string {
	names := []string{s.name + ".cow", s.name + ".mem", s.name + ".zeromem", s.name + ".memimg"}
	if s.cfg.Disk != Persistent {
		names = append(names, s.name+".disk")
	}
	return names
}

// dropNodeFiles drops the session's files from n's store unless n
// crashed: a crashed node's store survives but is unreachable, so its
// files are left for the reboot-time operator. (Shutdown of a crashed
// session happens when its supervisor gives up on recovery.)
func (s *Session) dropNodeFiles(n *Node) {
	if !n.crashed {
		dropFiles(n.store, s.nodeFiles()...)
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
