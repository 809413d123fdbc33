package core

import (
	"cmp"
	"errors"
	"fmt"

	"vmgrid/internal/gis"
	"vmgrid/internal/gram"
	"vmgrid/internal/guest"
	"vmgrid/internal/obs"
	"vmgrid/internal/sim"
	"vmgrid/internal/storage"
	"vmgrid/internal/vfs"
	"vmgrid/internal/vmm"
	"vmgrid/internal/vnet"
)

// DiskPolicy selects how the session's virtual disk relates to the base
// image — Table 2's persistent / non-persistent axis.
type DiskPolicy int

// Disk policies.
const (
	// NonPersistent layers a discardable copy-on-write diff over the
	// (possibly shared, possibly remote) base image.
	NonPersistent DiskPolicy = iota + 1
	// Persistent creates an explicit private copy of the disk before
	// the VM starts.
	Persistent
)

// String names the policy as in the paper.
func (p DiskPolicy) String() string {
	switch p {
	case NonPersistent:
		return "non-persistent"
	case Persistent:
		return "persistent"
	default:
		return fmt.Sprintf("DiskPolicy(%d)", int(p))
	}
}

// ImageAccess selects how VM state reaches the compute node — Table 2's
// DiskFS / LoopbackNFS axis plus the wide-area options of §3.1.
type ImageAccess int

// Image access modes.
const (
	// AccessLocal reads state from the compute node's own file system
	// (Table 2 "DiskFS"). The image must be installed on the node.
	AccessLocal ImageAccess = iota + 1
	// AccessLoopback reads state through a loopback-mounted NFS
	// partition of the host (Table 2 "LoopbackNFS").
	AccessLoopback
	// AccessOnDemand mounts the image server's files through the grid
	// virtual file system; blocks move on demand (§3.1).
	AccessOnDemand
	// AccessStaged transfers whole state files from the image server
	// before starting (GASS/GridFTP-style staging).
	AccessStaged
)

// String names the mode.
func (a ImageAccess) String() string {
	switch a {
	case AccessLocal:
		return "DiskFS"
	case AccessLoopback:
		return "LoopbackNFS"
	case AccessOnDemand:
		return "on-demand"
	case AccessStaged:
		return "staged"
	default:
		return fmt.Sprintf("ImageAccess(%d)", int(a))
	}
}

// infoQueryLatency models one information-service query round trip
// (an MDS search on period hardware).
const infoQueryLatency = 120 * sim.Millisecond

// SessionConfig describes a requested VM session.
type SessionConfig struct {
	// User is the grid identity.
	User string
	// FrontEnd names the node submitting on the user's behalf.
	FrontEnd string
	// Image names the VM image to instantiate.
	Image string
	// MemBytes is the guest memory (defaults to the image's snapshot
	// size or 128 MB).
	MemBytes int64
	// Mode is cold boot (VM-reboot) or warm restore (VM-restore).
	Mode vmm.StartMode
	// Disk is the persistence policy.
	Disk DiskPolicy
	// Access is how state reaches the compute node.
	Access ImageAccess
	// Site restricts the compute-node search ("" = any).
	Site string
	// DataNode/DataFile, when set, attach the user's data session
	// (mounted as "data" in the guest) from that data server.
	DataNode string
	DataFile string
	// HomeNode, when set, is where traffic tunnels if the compute site
	// offers no addresses.
	HomeNode string
	// DirtyBps, when positive, bounds the guest's modeled memory
	// dirtying rate: after the first full suspend, later suspends write
	// only the bytes dirtied since the image was last in sync. Most
	// useful with the grid's chunk plane (EnableChunkedStaging), where
	// it turns periodic checkpoints into delta transfers. 0 keeps
	// full-image suspends.
	DirtyBps int64
}

func (c SessionConfig) validate() error {
	if c.User == "" || c.FrontEnd == "" || c.Image == "" {
		return errors.New("core: session needs User, FrontEnd, and Image")
	}
	if c.Mode != vmm.ColdBoot && c.Mode != vmm.WarmRestore {
		return fmt.Errorf("core: bad start mode %v", c.Mode)
	}
	if c.Disk != NonPersistent && c.Disk != Persistent {
		return fmt.Errorf("core: bad disk policy %v", c.Disk)
	}
	switch c.Access {
	case AccessLocal, AccessLoopback, AccessOnDemand, AccessStaged:
	default:
		return fmt.Errorf("core: bad image access %v", c.Access)
	}
	if (c.DataNode == "") != (c.DataFile == "") {
		return errors.New("core: DataNode and DataFile go together")
	}
	return nil
}

// Errors callers match with errors.Is.
var (
	ErrNoFuture    = errors.New("core: no VM future satisfies the query")
	ErrNoImage     = errors.New("core: image not found")
	ErrNoAddress   = errors.New("core: no address source (site DHCP or HomeNode)")
	ErrBadSession  = errors.New("core: operation invalid in session state")
	ErrUnknownNode = errors.New("core: unknown node")
	// ErrLeaseExpired marks a session whose heartbeat lease lapsed — the
	// hosting node failed — and which could not (or can no longer) be
	// recovered by its supervisor.
	ErrLeaseExpired = errors.New("core: session lease expired")
	// ErrNoQuorum re-exports the replicated registry's fail-closed write
	// rejection: the originating node sits on the minority side of a
	// partition.
	ErrNoQuorum = gis.ErrNoQuorum
	// ErrFencedEpoch re-exports the fencing rejection: the operation
	// carried an epoch token older than the session's current epoch, so
	// its issuer is a pre-failover zombie.
	ErrFencedEpoch = gis.ErrFencedEpoch
)

// Event is one timestamped step of the session life cycle.
type Event struct {
	Step string
	At   sim.Time
}

// Session is one VM grid session.
type Session struct {
	grid *Grid
	cfg  SessionConfig
	id   int
	name string

	// cur is the session's current incarnation, nil until placement.
	cur         *incarnation
	imageServer string
	info        storage.ImageInfo
	localUser   string
	dataClient  *vfs.Client
	imageClient *vfs.Client
	events      []Event
	state       State
	phaseStart  sim.Time
	crashedAt   sim.Time

	// op is the operation in flight (nil = none).
	op *op
	// epoch is the session's one current fencing epoch, bumped through
	// quorum writes by each failover and fenced migration (0 = neither
	// ever happened).
	epoch int64
	// charge is the session's supervision, set by Supervisor.Adopt and
	// cleared by Release (nil = unsupervised).
	charge *charge
	// series holds the session's telemetry handles, resolved on its
	// first scrape.
	series *sessionSeries

	// root is the session's causal root span (submitted→ready); sctx is
	// its context, the parent every later span of the session's life —
	// phases, GRAM submits, VFS ops, VMM work, supervisor machinery —
	// descends from. Both are zero when tracing is off.
	root obs.Span
	sctx obs.SpanContext
}

// TraceContext returns the session's position in its causal tree (the
// root every span of its life cycle descends from). Invalid when
// tracing is off.
func (s *Session) TraceContext() obs.SpanContext { return s.sctx }

// Epoch returns the session's current fencing epoch.
func (s *Session) Epoch() int64 { return s.epoch }

// Name returns the session's unique name.
func (s *Session) Name() string { return s.name }

// Node returns the compute node hosting the VM (nil before placement).
func (s *Session) Node() *Node {
	if s.cur == nil {
		return nil
	}
	return s.cur.node
}

// VM returns the underlying virtual machine.
func (s *Session) VM() *vmm.VM {
	if s.cur == nil {
		return nil
	}
	return s.cur.vm
}

// Addr returns the VM's network address ("" when tunneled).
func (s *Session) Addr() string {
	if s.cur == nil {
		return ""
	}
	return s.cur.addr
}

// Tunnel returns the Ethernet tunnel, when the site gave no address.
func (s *Session) Tunnel() *vnet.Tunnel {
	if s.cur == nil {
		return nil
	}
	return s.cur.tunnel
}

// LocalUser returns the logical-account mapping: which local identity
// the grid user was multiplexed onto (the PUNCH logical user account
// model — grid middleware owns the physical accounts, users never do).
func (s *Session) LocalUser() string { return s.localUser }

// ImageServer returns the node the image was fetched from ("" for
// locally installed images).
func (s *Session) ImageServer() string { return s.imageServer }

// State returns the session's life-cycle state.
func (s *Session) State() State { return s.state }

// VFSCounters is what a session's VFS mounts did, summed over its
// user-data and on-demand image clients.
type VFSCounters struct {
	Hits, Misses, TransportErrors uint64
}

// HitRate is hits over block lookups; ok is false before any lookup.
func (c VFSCounters) HitRate() (rate float64, ok bool) {
	if c.Hits+c.Misses == 0 {
		return 0, false
	}
	return float64(c.Hits) / float64(c.Hits+c.Misses), true
}

// VFSCounters returns the session's VFS counters — the one reader the
// telemetry scrape and the daemon's top share.
func (s *Session) VFSCounters() VFSCounters {
	var v VFSCounters
	for _, c := range []*vfs.Client{s.dataClient, s.imageClient} {
		if c == nil {
			continue
		}
		v.Hits += c.Hits()
		v.Misses += c.Misses()
		v.TransportErrors += c.TransportErrors()
	}
	return v
}

// Events returns the life-cycle timeline.
func (s *Session) Events() []Event {
	return append([]Event(nil), s.events...)
}

// EventAt returns the time of a step (-1 if it never happened).
func (s *Session) EventAt(step string) sim.Time {
	for _, e := range s.events {
		if e.Step == step {
			return e.At
		}
	}
	return -1
}

func (s *Session) mark(step string) {
	now := s.grid.k.Now()
	if tr := s.grid.tracer; tr != nil {
		if phase := startupPhases[step]; phase != "" {
			tr.SpanAtChild(s.sctx, s.name, "phase", phase, s.phaseStart, now)
		}
		tr.Instant(s.name, "lifecycle", step)
	}
	if step == "submitted" || startupPhases[step] != "" {
		s.phaseStart = now
	}
	s.events = append(s.events, Event{Step: step, At: now})
}

// Run executes a workload in the session's guest and delivers the
// result — step 6 of the life cycle.
func (s *Session) Run(w guest.Workload, done func(guest.TaskResult)) error {
	_, err := s.RunTask(w, done)
	return err
}

// RunTask is Run exposing the task handle, for callers that track
// mid-flight progress (the supervisor's checkpoint accounting).
func (s *Session) RunTask(w guest.Workload, done func(guest.TaskResult)) (*guest.Task, error) {
	vm := s.VM()
	if !s.state.CanRun() || vm == nil {
		return nil, fmt.Errorf("%w: run in %q", ErrBadSession, s.state)
	}
	return vm.Guest().Run(w, done)
}

// crash marks the session dead-in-place after its hosting node failed:
// the VM stops, the registry entry goes away, and every bit of guest
// state that was not checkpointed is gone. No cleanup runs on the
// crashed node — its store is unreachable until reboot.
func (s *Session) crash() {
	if s.state == StateDead || s.state == StateCrashed {
		return
	}
	s.cur.stop()
	s.state = StateCrashed
	s.crashedAt = s.grid.k.Now()
	s.grid.tracer.Metrics().Counter("core.sessions.crashed").Inc()
	s.mark("crashed")
	s.grid.info.Deregister(gis.KindVM, s.name)
	s.cur.addr, s.cur.tunnel = "", nil
}

// Console returns an interactive handle description (a VNC display or
// login session in a real deployment).
func (s *Session) Console() string {
	return fmt.Sprintf("vnc://%s/%s", s.cur.node.name, s.name)
}

// memBackend routes memory-image traffic: restores read from the warm
// image (or whatever the session last wrote), suspends write to a
// session-private file. Writing flips subsequent reads to the private
// copy, giving hibernate/restore the right redo semantics without ever
// touching the shared image.
type memBackend struct {
	restore storage.Backend
	local   storage.Backend
	dirty   bool
}

var _ storage.Backend = (*memBackend)(nil)

func (m *memBackend) Name() string { return "session-mem" }
func (m *memBackend) Size() int64  { return m.src().Size() }
func (m *memBackend) src() storage.Backend {
	if m.dirty {
		return m.local
	}
	return m.restore
}
func (m *memBackend) Read(off, size int64, done func()) { m.src().Read(off, size, done) }
func (m *memBackend) ReadSequential(off, size int64, done func()) {
	m.src().ReadSequential(off, size, done)
}
func (m *memBackend) Write(off, size int64, done func()) {
	m.dirty = true
	m.local.Write(off, size, done)
}

// CreateSession runs the Figure 3 life cycle and delivers the ready
// session (or the first error) to done. The returned session handle is
// also usable immediately for inspection of progress. Options
// customize placement: WithPlacer / WithNodeHint steer step 1's node
// choice through the shared placement path. With no options the
// session places on the information service's first-ranked future.
func (g *Grid) CreateSession(cfg SessionConfig, done func(*Session, error), opts ...CreateOption) (*Session, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var o createOptions
	for _, opt := range opts {
		opt(&o)
	}
	front := g.nodes[cfg.FrontEnd]
	if front == nil {
		return nil, fmt.Errorf("%w: front end %q", ErrUnknownNode, cfg.FrontEnd)
	}
	if cfg.DataNode != "" && g.nodes[cfg.DataNode] == nil {
		return nil, fmt.Errorf("%w: data server %q", ErrUnknownNode, cfg.DataNode)
	}
	g.sessions++
	s := &Session{
		grid:  g,
		cfg:   cfg,
		id:    g.sessions,
		name:  fmt.Sprintf("sess-%d-%s", g.sessions, cfg.User),
		state: StatePending,
	}
	g.tracer.Metrics().Counter("core.sessions.submitted").Inc()
	// The session's causal root: every span of its life cycle — phases,
	// the GRAM submit, VFS block moves, VMM work, later supervisor
	// recoveries — descends from this one trace.
	s.root = g.tracer.BeginTrace(s.name, "session", "lifecycle")
	s.sctx = s.root.Context()
	s.mark("submitted")

	start := s.begin(opStart)
	fail := func(err error) {
		if s.cur != nil {
			s.cur.retire()
		}
		s.end(start)
		s.state = StateDead
		g.tracer.Metrics().Counter("core.sessions.failed").Inc()
		s.root.EndErr(err)
		if done != nil {
			done(s, err)
		}
	}
	start.abort = fail

	// Step 1: query the information service for a VM future.
	start.wait = g.k.After(infoQueryLatency, func() {
		futures := g.info.FindFutures(gis.FutureQuery{
			MinMemBytes: cfg.MemBytes,
			Site:        cfg.Site,
		})
		if len(futures) == 0 {
			fail(fmt.Errorf("%w: image %q site %q", ErrNoFuture, cfg.Image, cfg.Site))
			return
		}
		node, err := g.placeFor(cfg, o, futures)
		if err != nil {
			fail(err)
			return
		}
		s.cur = &incarnation{node: node}
		s.cur.takeSlot()
		s.mark("future-selected")

		// Step 2: locate the image.
		start.wait = g.k.After(infoQueryLatency, func() {
			// Past the steps: the job's fence and its reply take over.
			start.abort = nil
			if err := s.resolveImage(); err != nil {
				fail(err)
				return
			}
			s.mark("image-located")

			// Steps 3-4: the data session for the image and the VM
			// instantiation happen inside the globusrun envelope, as in
			// Table 2's measurement.
			client, err := gram.NewClient(g.net, g.registry, cfg.FrontEnd, front.host)
			if err != nil {
				fail(err)
				return
			}
			client.SetTracer(g.tracer)
			job := gram.Job{
				Name: "start-vm:" + s.name,
				Ctx:  s.sctx,
				// A job that reaches the gatekeeper after Shutdown does not run.
				Fence: func() error { return s.opErr(start) },
				Run:   func(ctx obs.SpanContext, jobDone func(error)) { s.instantiate(start, ctx, jobDone) },
			}
			submitErr := client.Submit(s.cur.node.name, job, func(err error) {
				// A cancelled start fails with errShutDown, whatever the
				// job reported.
				err = cmp.Or(s.opErr(start), err)
				if err != nil {
					fail(fmt.Errorf("core: start %s: %w", s.name, err))
					return
				}
				s.mark("vm-running")
				// Step 5: network identity and user data session.
				if err := s.connect(); err != nil {
					s.Shutdown()
					fail(err)
					return
				}
				s.end(start)
				s.mark("ready")
				s.root.End()
				s.state = StateRunning
				g.tracer.Metrics().Counter("core.sessions.ready").Inc()
				g.setLive(s)
				s.advertise()
				if done != nil {
					done(s, nil)
				}
			})
			if submitErr != nil {
				fail(submitErr)
			}
		})
	})
	return s, nil
}

// advertise registers the session's VM in the information service.
func (s *Session) advertise() {
	_ = s.grid.info.Register(gis.KindVM, s.name, map[string]any{
		gis.AttrHost: s.cur.node.name,
		gis.AttrAddr: s.cur.addr,
		"user":       s.cfg.User,
		"image":      s.cfg.Image,
	}, 0)
}

// resolveImage decides where the image comes from and records its
// metadata.
func (s *Session) resolveImage() error {
	cfg := s.cfg
	node := s.cur.node
	if cfg.Access == AccessLocal || cfg.Access == AccessLoopback {
		info, ok := node.Image(cfg.Image)
		if !ok {
			return fmt.Errorf("%w: %q not installed on %s (access %v)",
				ErrNoImage, cfg.Image, node.name, cfg.Access)
		}
		s.info = info
		return nil
	}
	entries := s.grid.FindImage(cfg.Image, node.name)
	if len(entries) == 0 {
		return fmt.Errorf("%w: %q on any image server", ErrNoImage, cfg.Image)
	}
	server := entries[0].Str("node")
	info, ok := s.grid.nodes[server].Image(cfg.Image)
	if !ok {
		return fmt.Errorf("%w: %q advertised but missing on %s", ErrNoImage, cfg.Image, server)
	}
	s.imageServer = server
	s.info = info
	return nil
}

// instantiate performs steps 3-4 of the start o on the compute node:
// build the state backends per policy, then create and start the VM.
// ctx is the gatekeeper's handler span, so the VMM's boot/restore work
// parents under the server side of the GRAM submit.
func (s *Session) instantiate(o *op, ctx obs.SpanContext, done func(error)) {
	if s.cfg.MemBytes == 0 {
		if s.info.MemBytes > 0 {
			s.cfg.MemBytes = s.info.MemBytes
		} else {
			s.cfg.MemBytes = 128 << 20
		}
	}
	if s.cfg.Mode == vmm.WarmRestore && !s.info.Warm() {
		done(fmt.Errorf("core: image %q has no memory snapshot to restore", s.info.Name))
		return
	}
	s.buildBackends(o, func(disk storage.Backend, mem *memBackend, err error) {
		if err != nil {
			done(err)
			return
		}
		vm, err := s.newVM(s.cur.node, disk, mem, ctx)
		if err != nil {
			done(err)
			return
		}
		s.cur.vm = vm
		s.localUser = fmt.Sprintf("vmuser%02d", s.id%100)
		s.mark("vm-starting")
		if err := vm.Start(s.cfg.Mode, done); err != nil {
			done(err)
		}
	})
}

// newVM builds the session's VM on node over the given virtual disk and
// memory image; ctx parents the VM's boot or restore work.
func (s *Session) newVM(node *Node, disk storage.Backend, mem *memBackend, ctx obs.SpanContext) (*vmm.VM, error) {
	return vmm.New(node.host, vmm.Config{
		Name:     s.name,
		MemBytes: s.cfg.MemBytes,
		Disk:     disk,
		MemImage: mem,
		DirtyBps: s.cfg.DirtyBps,
		Trace:    s.grid.tracer,
		Ctx:      ctx,
	})
}

// buildBackends constructs the virtual disk and memory-image backends
// for the session's policy and access mode, charging whatever transfers
// they imply (the persistent copy, staging, both o's) before yielding.
func (s *Session) buildBackends(o *op, yield func(storage.Backend, *memBackend, error)) {
	node := s.cur.node
	info := s.info

	// localMem is the session-private memory file used by suspend.
	localMem, err := node.store.OpenOrCreate(s.name + ".mem")
	if err != nil {
		yield(nil, nil, err)
		return
	}

	switch {
	case s.cfg.Access == AccessStaged:
		// Whole-file staging from the image server, then run locally.
		src := s.grid.nodes[s.imageServer]
		s.privateCopy(func(file, asName string, done func(error)) {
			s.grid.stage(&o.xfer, src, file, node, asName, done)
		}, localMem, yield)

	case s.cfg.Access == AccessLocal && s.cfg.Disk == Persistent:
		// Explicit private copy in the host's local file system. It
		// cannot be cancelled, so a copy that lands asks the op.
		s.privateCopy(func(file, asName string, done func(error)) {
			if err := node.store.Copy(file, asName, func() { done(s.opErr(o)) }); err != nil {
				done(err)
			}
		}, localMem, yield)

	case s.cfg.Access == AccessLocal:
		base, err := node.store.Open(info.DiskFile())
		if err != nil {
			yield(nil, nil, err)
			return
		}
		s.finishCow(base, s.localOrZeroMem(), localMem, yield)

	default: // AccessLoopback, AccessOnDemand: the image's files over a vfs mount
		var client *vfs.Client
		if s.cfg.Access == AccessLoopback {
			lcfg := vfs.LoopbackNFSConfig()
			lcfg.Trace = s.grid.tracer
			lcfg.Ctx = s.sctx
			client, err = vfs.NewClient(s.grid.k, vfs.NewLoopbackTransport(s.grid.k, node.vfsrv), lcfg)
		} else {
			client, err = s.grid.vfsClient(node.name, s.imageServer, s)
		}
		if err != nil {
			yield(nil, nil, err)
			return
		}
		s.imageClient = client
		base := client.Open(info.DiskFile(), info.DiskBytes)
		var restoreMem storage.Backend = base
		if info.Warm() {
			restoreMem = client.Open(info.MemFile(), info.MemBytes)
		}
		s.finishCow(base, restoreMem, localMem, yield)
	}
}

// privateCopy gives the session its own copy of the image through
// copyFile — the disk as <s>.disk, then, for a warm image, the memory
// snapshot as <s>.memimg — and yields backends over the copies. A cold
// image restores from an empty <s>.zeromem. A failed disk copy (one
// Shutdown cancelled too) ends the start there.
func (s *Session) privateCopy(copyFile func(file, asName string, done func(error)),
	localMem *storage.LocalFile, yield func(storage.Backend, *memBackend, error)) {
	store := s.cur.node.store
	diskCopy, memCopy := s.name+".disk", s.name+".memimg"
	opened := func(restoreMem storage.Backend, err error) {
		var disk storage.Backend
		if err == nil {
			disk, err = store.Open(diskCopy)
		}
		if err != nil {
			yield(nil, nil, err)
			return
		}
		yield(disk, &memBackend{restore: restoreMem, local: localMem}, nil)
	}
	copyFile(s.info.DiskFile(), diskCopy, func(err error) {
		switch {
		case err != nil:
			yield(nil, nil, err)
		case !s.info.Warm():
			opened(store.OpenOrCreate(s.name + ".zeromem"))
		default:
			copyFile(s.info.MemFile(), memCopy, func(err error) {
				if err != nil {
					opened(nil, err)
					return
				}
				opened(store.Open(memCopy))
			})
		}
	})
}

// finishCow wires the non-persistent (or trivially persistent-over-
// remote) copy-on-write stack.
func (s *Session) finishCow(base, restoreMem storage.Backend, localMem *storage.LocalFile,
	yield func(storage.Backend, *memBackend, error)) {
	diff, err := s.cur.node.store.OpenOrCreate(s.name + ".cow")
	if err != nil {
		yield(nil, nil, err)
		return
	}
	s.cur.cow = storage.NewCowDisk(base, diff)
	yield(s.cur.cow, &memBackend{restore: restoreMem, local: localMem}, nil)
}

// localOrZeroMem returns the local warm-image backend for AccessLocal.
func (s *Session) localOrZeroMem() storage.Backend {
	store := s.cur.node.store
	if s.info.Warm() {
		if f, err := store.Open(s.info.MemFile()); err == nil {
			return f
		}
	}
	f, _ := store.OpenOrCreate(s.name + ".zeromem")
	return f
}

// connect gives the VM a network identity (step 5) and attaches the
// user's data session.
func (s *Session) connect() error {
	in := s.cur
	// Scenario 1: the site hands out addresses.
	if in.node.dhcp != nil {
		addr, err := in.node.dhcp.Lease(s.name)
		if err == nil {
			in.addr = addr
			s.mark("addr-assigned")
			if err := s.attachData(); err != nil {
				// Hand the fresh lease back: a failed connect leaves no
				// address behind, so retried failovers cannot drain the
				// pool one dead lease at a time.
				_ = in.node.dhcp.Release(addr)
				in.addr = ""
				return err
			}
			return nil
		}
		// Pool exhausted: fall through to tunneling.
	}
	// Scenario 2: tunnel to the user's network.
	if s.cfg.HomeNode == "" {
		return fmt.Errorf("%w: site %q", ErrNoAddress, in.node.site)
	}
	tun, err := vnet.EstablishTunnel(s.grid.net, in.node.name, s.cfg.HomeNode)
	if err != nil {
		return err
	}
	in.tunnel = tun
	s.mark("tunnel-established")
	return s.attachData()
}

// attachData mounts the user's data server in the guest.
func (s *Session) attachData() error {
	if s.cfg.DataNode == "" {
		return nil
	}
	dataNode := s.grid.nodes[s.cfg.DataNode]
	if !dataNode.store.Has(s.cfg.DataFile) {
		return fmt.Errorf("core: data file %q missing on %s", s.cfg.DataFile, s.cfg.DataNode)
	}
	client, err := s.grid.vfsClient(s.cur.node.name, s.cfg.DataNode, s)
	if err != nil {
		return err
	}
	s.dataClient = client
	size, _ := dataNode.store.Size(s.cfg.DataFile)
	s.cur.vm.Guest().Mount("data", client.Open(s.cfg.DataFile, size))
	s.mark("data-attached")
	return nil
}

// fence builds the fencing token check for the current incarnation's
// data-plane clients against a server at serverNode. Two layers: a
// superseded incarnation (a failover restore or migration made another
// one current) is fenced unconditionally, and an operation whose epoch
// token the server's registry view has moved past is rejected with
// ErrFencedEpoch. Tripping the second schedules zombie cleanup through
// the session's supervisor — the self-termination path of a
// pre-failover session that outlived its lease.
func (s *Session) fence(serverNode string) func() error {
	in := s.cur
	token := s.epoch
	guard := s.grid.epochGuardAt(serverNode, s.name, token)
	return func() error {
		if s.cur != in {
			return ErrFencedEpoch
		}
		if err := guard(); err != nil {
			s.grid.k.After(0, func() {
				if c := s.charge; c != nil {
					c.sup.fenceZombie(c, token)
				}
			})
			return err
		}
		return nil
	}
}

// vfsClient builds a proxy from one node to another, picking the LAN or
// WAN preset by measured latency. A non-nil session threads its
// fencing token into the mount: dirty-block flushes of a superseded
// incarnation are rejected with ErrFencedEpoch.
func (g *Grid) vfsClient(fromNode, toNode string, s *Session) (*vfs.Client, error) {
	target := g.nodes[toNode]
	if target == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, toNode)
	}
	tr, err := vfs.NewNetTransport(g.net, fromNode, toNode, target.vfsrv)
	if err != nil {
		return nil, err
	}
	lat, err := g.net.Latency(fromNode, toNode, 1024)
	if err != nil {
		// No route: refuse to build a mount that could never move data.
		return nil, fmt.Errorf("core: %s cannot reach %s: %w", fromNode, toNode, err)
	}
	cfg := vfs.LANConfig()
	if lat > 5*sim.Millisecond {
		cfg = vfs.WANConfig()
	}
	cfg.Trace = g.tracer
	if s != nil {
		cfg.Fence = s.fence(toNode)
		cfg.Ctx = s.sctx
	}
	return vfs.NewClient(g.k, tr, cfg)
}
