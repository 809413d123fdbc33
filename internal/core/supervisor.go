package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"vmgrid/internal/gis"
	"vmgrid/internal/gram"
	"vmgrid/internal/guest"
	"vmgrid/internal/obs"
	"vmgrid/internal/retry"
	"vmgrid/internal/sim"
)

// The failure detector's timing, shared by the supervisor and the
// stale-lease alert rule (DefaultAlertRules).
const (
	// heartbeatInterval is how often the supervisor refreshes a charge's
	// lease (and, for crashed charges, polls for lease expiry).
	heartbeatInterval = 2 * sim.Second
	// leaseTTL is the lease lifetime per refresh; a host must miss
	// several heartbeats before its sessions are declared failed.
	leaseTTL = 3 * heartbeatInterval
)

// SupervisorConfig tunes the self-healing session supervisor.
type SupervisorConfig struct {
	// CheckpointInterval is how often the supervisor checkpoints each
	// charge (stop-and-copy: suspend, stage the memory image and COW
	// diff to stable storage, resume). Default 60 s.
	CheckpointInterval sim.Duration
	// StableNode names the node whose store holds checkpoints. It must
	// survive the failures the supervisor is expected to mask
	// (typically a data server). Required.
	StableNode string
	// MaxRecoveries bounds failovers per session before the supervisor
	// gives up and fails the session's tasks with ErrLeaseExpired.
	// Default 8.
	MaxRecoveries int
}

func (c *SupervisorConfig) fill() {
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = 60 * sim.Second
	}
	if c.MaxRecoveries <= 0 {
		c.MaxRecoveries = 8
	}
}

// SupervisorStats aggregates what the supervisor did and what the
// failures cost — the raw material for the recovery ablation.
type SupervisorStats struct {
	// Checkpoints is how many checkpoints committed to stable storage.
	Checkpoints int
	// CheckpointSec is total virtual time charges spent suspended or
	// staging for checkpoints (the fault-free overhead of protection).
	CheckpointSec float64
	// Crashes counts lease expiries detected (one per charge per crash).
	Crashes int
	// Recoveries counts successful failovers.
	Recoveries int
	// LostWorkSec is user work retired after the last checkpoint and
	// before the crash — work that must be replayed.
	LostWorkSec float64
	// RepairSec is virtual time from crash to the charge running again
	// (detection latency + restore; excludes replay).
	RepairSec float64
	// GivenUp counts charges abandoned after MaxRecoveries.
	GivenUp int
	// FencedResults counts task completions delivered by a superseded
	// incarnation and rejected by the epoch check — each one a double
	// completion that fencing prevented.
	FencedResults int
	// NoQuorumBackoffs counts failover attempts deferred because the
	// supervisor could not commit the epoch bump to a registry quorum
	// (it may itself be on the minority side of a partition).
	NoQuorumBackoffs int
	// ZombiesFenced counts marooned pre-failover incarnations cleaned up
	// after they surfaced (a fence trip or a late task result).
	ZombiesFenced int
}

// supTask is one supervised workload: the original request plus the
// progress accounting that survives failovers.
type supTask struct {
	w    guest.Workload
	done func(guest.TaskResult)

	task  *guest.Task
	start sim.Time
	// baseSec is absolute user progress (reference CPU-seconds of w) at
	// the start of the current incarnation; ckptSec the progress
	// captured by the last committed checkpoint.
	baseSec float64
	ckptSec float64
	// remaining is the workload the current incarnation is running
	// (w minus baseSec, I/O scaled down proportionally).
	remaining guest.Workload
	finished  bool
}

// charge is one supervised session: the session's Session.charge
// while its supervisor sup holds it.
type charge struct {
	s     *Session
	sup   *Supervisor
	tasks []*supTask

	// slot is the committed checkpoint slot (0 or 1; -1 = none). The
	// next checkpoint stages into the other slot and flips on success,
	// so a crash mid-checkpoint never destroys the last good one.
	slot      int
	ckptPages []int64

	hbNext   sim.EventID
	beat     func() // heartbeat(c), bound once so rearming allocates nothing
	ckNext   sim.EventID
	failSpan obs.Span
	// lossAccounted marks that the current crash's lost work has been
	// charged to the stats; failover retries (no target available yet)
	// must not count the same crash again.
	lossAccounted bool
	recoveries    int
	stopped       bool
	// lastRenew is when the lease was last refreshed (-1 before the
	// first renewal) — the telemetry pipeline derives lease.age from it.
	lastRenew sim.Time
	series    *leaseSeries // telemetry handles, resolved on the first scrape

	// since is the fencing epoch the last failover assigned (0 before
	// any). Each task submission captures the session's epoch, and
	// taskDone rejects a result submitted before since: it comes from a
	// superseded incarnation. A fenced migration bumps the session's
	// epoch too but keeps the guest, so results submitted under the
	// epochs it passed stay genuine — epochs only grow, so they are all
	// at or past since.
	since int64
	// zombies are the partitioned-away incarnations, kept at failover
	// time and retired only when each surfaces (the supervisor cannot
	// reach through a partition to kill one). Repeated partitions can
	// maroon several at once; a surfacing event names its incarnation by
	// the fencing epoch it ran under, and the others keep their slots
	// and addresses until they surface themselves.
	zombies []*incarnation
}

// ckptFile names the checkpoint slot's copy of one state file, by its
// extension (".mem" or ".cow").
func (c *charge) ckptFile(slot int, ext string) string {
	return fmt.Sprintf("%s.ckpt%d%s", c.s.name, slot, ext)
}

// dropCheckpoints drops both checkpoint slots from the stable node
// unless it crashed (as dropNodeFiles spares a crashed node's store).
func (c *charge) dropCheckpoints() {
	stable := c.sup.g.nodes[c.sup.cfg.StableNode]
	if stable.crashed {
		return
	}
	for slot := 0; slot < 2; slot++ {
		dropFiles(stable.store, c.ckptFile(slot, ".mem"), c.ckptFile(slot, ".cow"))
	}
}

// Supervisor gives sessions a heartbeat lease in the information
// service (soft state as the failure detector), periodic memory-image
// checkpoints to stable storage, and automatic re-instantiation on a
// surviving node when the lease expires — replaying only the work lost
// since the last checkpoint.
type Supervisor struct {
	g       *Grid
	cfg     SupervisorConfig
	charges []*charge // sorted by session name
	stats   SupervisorStats
}

// NewSupervisor creates a supervisor writing checkpoints to
// cfg.StableNode.
func NewSupervisor(g *Grid, cfg SupervisorConfig) (*Supervisor, error) {
	cfg.fill()
	if cfg.StableNode == "" || g.nodes[cfg.StableNode] == nil {
		return nil, fmt.Errorf("%w: stable node %q", ErrUnknownNode, cfg.StableNode)
	}
	sup := &Supervisor{g: g, cfg: cfg}
	g.supervisors = append(g.supervisors, sup)
	return sup, nil
}

// Stats returns a snapshot of the supervisor's counters.
func (sup *Supervisor) Stats() SupervisorStats { return sup.stats }

// view returns the registry replica the supervisor reads: the one
// pinned to the stable node when the registry is replicated (the
// supervisor conceptually runs there), else the grid's service. Writes
// still go through quorum; only reads are local.
func (sup *Supervisor) view() *gis.Service {
	if cl := sup.g.info.Cluster(); cl != nil {
		for i := 0; i < cl.Size(); i++ {
			if cl.Node(i) == sup.cfg.StableNode {
				return cl.Replica(i)
			}
		}
	}
	return sup.g.info
}

// Adopt places a running session under supervision: registers its
// lease, takes an immediate baseline checkpoint (so a valid checkpoint
// exists before the first failure can strike), and starts the periodic
// heartbeat and checkpoint ticks. done fires when the baseline
// checkpoint commits.
func (sup *Supervisor) Adopt(s *Session, done func(error)) error {
	if !s.State().CanRun() {
		return fmt.Errorf("%w: adopt in %q", ErrBadSession, s.State())
	}
	if s.cur.cow == nil {
		return errors.New("core: supervisor requires a non-persistent (COW) session")
	}
	if s.charge != nil {
		// One supervisor per session: two would each fail the session
		// over on their own and strand each other's tasks.
		return fmt.Errorf("core: session %q already supervised", s.name)
	}
	c := &charge{s: s, sup: sup, slot: -1, lastRenew: -1}
	c.beat = func() { sup.heartbeat(c) }
	s.charge = c
	i, _ := slices.BinarySearchFunc(sup.charges, s.name, func(c *charge, name string) int {
		return strings.Compare(c.s.name, name)
	})
	sup.charges = slices.Insert(sup.charges, i, c)
	sup.renewLease(c)
	sup.scheduleHeartbeat(c)
	sup.checkpoint(c, func(err error) {
		if err == nil {
			sup.scheduleCheckpoint(c)
		}
		if done != nil {
			done(err)
		}
	})
	return nil
}

// Run starts a workload in a supervised session. The done callback sees
// a merged result spanning failovers: UserSeconds counts the full
// workload and Start is the original submission time, so only End (and
// therefore Elapsed) reflects recovery delays.
func (sup *Supervisor) Run(s *Session, w guest.Workload, done func(guest.TaskResult)) error {
	c := s.charge
	if c == nil || c.sup != sup {
		return fmt.Errorf("core: session %q not supervised", s.name)
	}
	t := &supTask{w: w, done: done, start: sup.g.k.Now(), remaining: w}
	epoch := s.epoch
	task, err := s.RunTask(w, func(res guest.TaskResult) { sup.taskDone(c, t, epoch, res) })
	if err != nil {
		return err
	}
	t.task = task
	c.tasks = append(c.tasks, t)
	return nil
}

// Release ends supervision without ending the session: lease renewals
// and checkpoints stop and the lease lapses naturally. The checkpoint
// slots stay on the stable node. A charge with zombies keeps its
// heartbeat sweep until the last one is fenced, so a marooned
// incarnation still gives its slot and address back once its host
// answers again.
func (sup *Supervisor) Release(s *Session) {
	c := s.charge
	if c == nil || c.sup != sup {
		return
	}
	s.charge = nil
	c.stopped = true
	if len(c.zombies) == 0 {
		sup.g.k.Cancel(c.hbNext)
	}
	sup.g.k.Cancel(c.ckNext)
	sup.g.info.Deregister(gis.KindLease, s.name)
	sup.charges = slices.DeleteFunc(sup.charges, func(x *charge) bool { return x == c })
}

// Stop releases every charge, in session-name order. Charges with
// zombies keep sweeping them (see Release).
func (sup *Supervisor) Stop() {
	for len(sup.charges) > 0 {
		sup.Release(sup.charges[0].s)
	}
}

// renewLease refreshes the charge's lease as a write originating at
// the session's host: against a replicated registry, a partitioned
// host's renewal fails closed (no quorum) even though the supervisor
// itself is healthy — that failure is the partition detector.
func (sup *Supervisor) renewLease(c *charge) bool {
	host := c.s.cur.node.name
	if err := sup.g.info.RegisterFrom(host, gis.KindLease, c.s.name, map[string]any{
		gis.AttrHost:  host,
		gis.AttrEpoch: c.s.epoch,
	}, leaseTTL); err != nil {
		return false
	}
	c.lastRenew = sup.g.k.Now()
	return true
}

func (sup *Supervisor) scheduleHeartbeat(c *charge) {
	c.hbNext = sup.g.k.After(heartbeatInterval, c.beat)
}

func (sup *Supervisor) scheduleCheckpoint(c *charge) {
	c.ckNext = sup.g.k.After(sup.cfg.CheckpointInterval, func() {
		sup.scheduleCheckpoint(c)
		sup.checkpoint(c, nil)
	})
}

// heartbeat is the supervisor's periodic tick for one charge: refresh
// the lease while the host is healthy, detect expiry once it is not,
// and sweep zombies. A released charge only sweeps.
func (sup *Supervisor) heartbeat(c *charge) {
	if c.stopped && len(c.zombies) == 0 {
		return
	}
	s := c.s
	switch {
	case c.stopped:
		// Released with zombies left: only the sweep below runs.
	case s.State() == StateDead:
		sup.Release(s)
		if len(c.zombies) == 0 {
			return
		}
	case s.State() == StateRunning, s.State() == StateHibernated:
		if sup.renewLease(c) || s.op.is(opFailover) {
			break
		}
		// The host cannot reach a registry quorum: it is on the minority
		// side of a partition. Once the lease expires in the supervisor's
		// (majority-side) view, fail over — with fencing, because unlike a
		// crash the old incarnation is still running over there.
		if _, err := sup.view().Lookup(gis.KindLease, s.name); err != nil {
			sup.partitionFailover(c)
		}
	case s.State() == StateCrashed && !s.op.is(opFailover):
		if _, err := sup.view().Lookup(gis.KindLease, s.name); err != nil {
			sup.failover(c)
		}
	}
	sup.sweepZombies(c)
	sup.scheduleHeartbeat(c)
}

// sweepZombies reclaims marooned incarnations whose host answers
// again. A zombie that was suspended mid-checkpoint when the partition
// hit never finishes its task, so no stale result will ever surface it;
// reachability is the only remaining trigger for taking back its slot
// and address.
func (sup *Supervisor) sweepZombies(c *charge) {
	var ripe []int64
	for _, z := range c.zombies {
		if sup.g.net.Reachable(sup.g.net.Node(sup.cfg.StableNode), z.node.nic) {
			ripe = append(ripe, z.epoch)
		}
	}
	for _, epoch := range ripe {
		sup.fenceZombie(c, epoch)
	}
}

// fail ends the task with err, crediting userSec of progress.
func (t *supTask) fail(end sim.Time, userSec float64, err error) {
	t.finished = true
	if t.done != nil {
		t.done(guest.TaskResult{Workload: t.w, Start: t.start, End: end, UserSeconds: userSec, Err: err})
	}
}

// progressSec returns a task's absolute user progress right now, in
// reference CPU-seconds of the original workload.
func (t *supTask) progressSec() float64 {
	if t.finished {
		return t.w.CPUSeconds
	}
	if t.task == nil {
		return t.baseSec
	}
	return t.baseSec + t.task.Progress()*t.remaining.CPUSeconds
}

// checkpoint runs one stop-and-copy checkpoint: suspend the VM (memory
// image lands in the node store), record task progress and COW
// occupancy, stage both state files into the spare slot on the stable
// node, flip the slot, resume. A crash mid-checkpoint leaves the
// previous slot intact.
func (sup *Supervisor) checkpoint(c *charge, done func(error)) {
	s := c.s
	if c.stopped || s.op != nil || !s.State().CanRun() {
		if done != nil {
			done(fmt.Errorf("%w: checkpoint in %q", ErrBadSession, s.State()))
		}
		return
	}
	o := s.begin(opCheckpoint)
	suspendedAt := sup.g.k.Now()
	ep := s.epoch
	sp := sup.g.tracer.BeginChild(s.sctx, s.name, "supervisor", "checkpoint")
	// frozen charges the time since the suspend as checkpoint overhead.
	frozen := func() { sup.stats.CheckpointSec += sup.g.k.Now().Sub(suspendedAt).Seconds() }
	finish := func(err error) {
		s.end(o)
		sp.EndErr(err)
		if done != nil {
			done(err)
		}
	}
	if err := s.cur.vm.Suspend(func(err error) {
		if err != nil {
			frozen()
			finish(err)
			return
		}
		// Progress and disk state are now frozen; snapshot both.
		snap := make([]float64, len(c.tasks))
		for i, t := range c.tasks {
			snap[i] = t.progressSec()
		}
		pages := s.cur.cow.WrittenPages()
		spare := 0
		if c.slot == 0 {
			spare = 1
		}
		commit := func(err error) error {
			// A checkpoint begun before a failover must not commit: its
			// image is the superseded incarnation's state.
			if err == nil && s.epoch != ep {
				err = ErrFencedEpoch
			}
			if err == nil {
				c.slot = spare
				c.ckptPages = pages
				// Tasks submitted while we staged are not in this image;
				// only the snapshot's prefix advances (append-only list).
				for i := range snap {
					c.tasks[i].ckptSec = snap[i]
				}
				sup.stats.Checkpoints++
			}
			return err
		}
		if s.cur.node.store.ChunkPlane() != nil {
			// Pipelined checkpoint: the chunked stage snapshots both file
			// manifests synchronously in this event (modeling a COW-
			// protected checkpoint image), so the guest can resume now and
			// compute while the chunks drain to stable storage in the
			// background. Only the frozen window counts as checkpoint
			// overhead; the slot still flips only when staging commits.
			sup.stageCheckpoint(c, o, spare, func(err error) { finish(commit(err)) })
			frozen()
			if s.State() == StateRunning {
				_ = s.cur.vm.Unpause()
			}
			return
		}
		sup.stageCheckpoint(c, o, spare, func(err error) {
			err = commit(err)
			// The node may have crashed while we staged; only a VM still
			// sitting suspended resumes.
			if s.State() == StateRunning {
				if uerr := s.cur.vm.Unpause(); uerr != nil && err == nil {
					err = uerr
				}
			}
			frozen()
			finish(err)
		})
	}); err != nil {
		finish(err)
	}
}

// stageFile copies one session state file into the stable store under
// asName for the checkpoint o, first deleting what an abandoned earlier
// checkpoint left in that slot, so the stage does not trip over
// ErrExists.
func (sup *Supervisor) stageFile(c *charge, o *op, file, asName string, done func(error)) {
	stable := sup.g.nodes[sup.cfg.StableNode]
	dropFiles(stable.store, asName)
	sup.g.stage(&o.xfer, c.s.cur.node, file, stable, asName, done)
}

// stageCheckpoint copies the session's .mem and .cow files into the
// given checkpoint slot on the stable node. With the chunk plane enabled the
// two copies run concurrently — their manifests snapshot in the same
// event, so the pair is one consistent image even while the resumed
// guest keeps dirtying the COW — and only missing chunks cross the
// wire; without it they run back to back, as they always have.
func (sup *Supervisor) stageCheckpoint(c *charge, o *op, slot int, done func(error)) {
	s := c.s
	if s.cur.node.store.ChunkPlane() != nil {
		pending := 2
		var firstErr error
		settle := func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if pending--; pending == 0 {
				done(firstErr)
			}
		}
		sup.stageFile(c, o, s.name+".mem", c.ckptFile(slot, ".mem"), settle)
		sup.stageFile(c, o, s.name+".cow", c.ckptFile(slot, ".cow"), settle)
		return
	}
	stagePair(func(ext string, next func(error)) {
		sup.stageFile(c, o, s.name+ext, c.ckptFile(slot, ext), next)
	}, done)
}

// failover recovers a crashed charge: account the lost work, pick a
// surviving compute node holding the base image, stage the last
// checkpoint there, dispatch a restore job through GRAM (with retry —
// the fabric may still be flaky), and resubmit the remaining work.
func (sup *Supervisor) failover(c *charge) {
	s := c.s
	if !c.lossAccounted {
		c.lossAccounted = true
		sup.stats.Crashes++
		for _, t := range c.tasks {
			if t.finished {
				continue
			}
			if lost := t.progressSec() - t.ckptSec; lost > 0 {
				sup.stats.LostWorkSec += lost
			}
		}
	}
	if c.slot < 0 || c.recoveries >= sup.cfg.MaxRecoveries {
		sup.giveUp(c)
		return
	}
	// The failover supersedes whatever op the failure overtook, which
	// runs on: a checkpoint's commit fails its epoch check, a migration
	// its supersede check.
	o := s.begin(opFailover)
	s.state = StateRecovering
	s.mark("recovering")
	c.failSpan = sup.g.tracer.BeginChild(s.sctx, s.name, "supervisor", "failover")
	// Recovery entered: open an incident rooted at the failover span.
	// The bundle captures the session's trace as the recovery unfolds
	// and seals — postmortem included — when the failover span ends.
	sup.g.incidentOpen("recovery", s.name, c.failSpan.Context())

	target := sup.pickTarget(s)
	if target == nil {
		// Nothing can host the session right now (all candidates down or
		// full). This attempt does not count against MaxRecoveries.
		sup.backOff(c, o, nil, errors.New("no target available"))
		return
	}
	// Fence before the new incarnation can exist: bump the session's
	// epoch through a quorum write. Failure means the supervisor cannot
	// prove it holds the majority view (it may itself be partitioned) —
	// back off rather than risk two live incarnations at the same epoch.
	ep, err := sup.g.info.BumpEpochFrom(sup.cfg.StableNode, s.name)
	if err != nil {
		sup.stats.NoQuorumBackoffs++
		sup.backOff(c, o, nil, errors.New("no quorum for epoch bump"))
		return
	}
	// Results still in flight under any older epoch are now zombie
	// results and must fence.
	s.epoch, c.since = ep, ep

	c.recoveries++
	in := &incarnation{node: target}
	in.takeSlot()

	stageSp := sup.g.tracer.BeginChild(c.failSpan.Context(), s.name, "supervisor", "restore-stage")
	slot := c.slot
	s.moveState(o, sup.g.nodes[sup.cfg.StableNode], func(ext string) string { return c.ckptFile(slot, ext) },
		target, func(err error) {
			stageSp.EndErr(err)
			if err != nil {
				sup.backOff(c, o, in, err)
				return
			}
			sup.dispatchRestore(c, o, in)
		})
}

// backOff abandons the charge's failover o and retires in, the
// incarnation o took a slot for (nil if none yet): the session reads
// crashed again, the failover span ends with why, and o ends once a
// lease has passed, so the heartbeat may re-detect and retry. If
// Shutdown cancelled o, the session stays dead instead, and what o
// staged onto in's node goes.
func (sup *Supervisor) backOff(c *charge, o *op, in *incarnation, why error) {
	s := c.s
	if in != nil {
		in.retire()
	}
	switch {
	case s.op == o:
		s.state = StateCrashed
	case in != nil:
		s.dropNodeFiles(in.node)
	}
	c.failSpan.EndErr(why)
	sup.g.k.After(leaseTTL, func() { s.end(o) })
}

// partitionFailover recovers a charge whose host is partitioned rather
// than dead: lease renewals from the host fail closed and the lease
// has expired in the supervisor's majority-side view. Unlike a crash,
// the old incarnation is still running on the far side — so the epoch
// is bumped first (refusing to proceed without quorum), and the old
// incarnation becomes a zombie, retired when it surfaces (a fence trip,
// a late task result or the heartbeat sweep) rather than by reaching
// through the partition to kill it.
func (sup *Supervisor) partitionFailover(c *charge) {
	s := c.s
	old := s.epoch
	ep, err := sup.g.info.BumpEpochFrom(sup.cfg.StableNode, s.name)
	if err != nil {
		// No quorum from the stable node either: the supervisor itself
		// may be the minority. Do nothing; the heartbeat re-detects.
		sup.stats.NoQuorumBackoffs++
		return
	}
	s.epoch, c.since = ep, ep
	s.cur.epoch = old
	c.zombies = append(c.zombies, s.cur)
	s.crashedAt = sup.g.k.Now()
	s.state = StateCrashed
	s.mark("partitioned")
	sup.failover(c)
}

// fenceZombie retires the marooned incarnation that ran under the
// given epoch, once it has surfaced. Other, still-unsurfaced zombies
// keep their slots and addresses — releasing a slot out from under a
// VM still running on the far side would mint capacity. Safe to call
// when no zombie matches.
func (sup *Supervisor) fenceZombie(c *charge, epoch int64) {
	i := slices.IndexFunc(c.zombies, func(z *incarnation) bool { return z.epoch == epoch })
	if i < 0 {
		return
	}
	c.zombies[i].retire()
	c.zombies = slices.Delete(c.zombies, i, i+1)
	c.s.mark("fenced")
	sup.stats.ZombiesFenced++
	sup.g.incidentNow("fence", c.s.name)
}

// pickTarget picks the restore target through the grid's shared
// placement path: candidates come from the supervisor's registry view,
// filtered for the session's base image and for bidirectional
// reachability from the stable node (checkpoint staging and its acks)
// and the front end (restore dispatch and its result) — a partitioned
// host still advertises a stale future, and a half-dead node with a
// muted transmit side would swallow the replies and hang the failover.
// The first survivor in the registry's ranking (advertised load
// ascending) wins, the order every recovery experiment was calibrated
// against.
func (sup *Supervisor) pickTarget(s *Session) *Node {
	name, ok := sup.g.placeSession(sup.view(), nil, s, "", sup.cfg.StableNode, s.cfg.FrontEnd)
	if !ok {
		return nil
	}
	return sup.g.nodes[name]
}

// dispatchRestore submits the restore job through GRAM from the
// session's front end and, on success, resubmits the remaining work.
// in is the incarnation whose slot the failover o took; a failed
// restore retires it.
func (sup *Supervisor) dispatchRestore(c *charge, o *op, in *incarnation) {
	s := c.s
	abort := func(err error) { sup.backOff(c, o, in, err) }
	front := sup.g.nodes[s.cfg.FrontEnd]
	if front == nil || front.crashed {
		abort(fmt.Errorf("%w: front end %q", ErrUnknownNode, s.cfg.FrontEnd))
		return
	}
	client, err := gram.NewClient(sup.g.net, sup.g.registry, front.name, front.host)
	if err != nil {
		abort(err)
		return
	}
	ep := s.epoch
	job := gram.Job{
		Name: "restore-vm:" + s.name,
		Ctx:  c.failSpan.Context(),
		// The fencing token rides the job: if a newer failover bumped the
		// epoch while this dispatch sat in retry backoff, the gatekeeper
		// rejects the stale restore instead of resurrecting a zombie. Nor
		// does a restore run once Shutdown cancelled the failover.
		Fence: func() error {
			if s.epoch != ep {
				return ErrFencedEpoch
			}
			return s.opErr(o)
		},
		// The restore warm-starts in's VM over the staged checkpoint with
		// a fresh guest (the crashed one's later state is gone); resume
		// then resubmits the remaining work.
		Run: func(ctx obs.SpanContext, jobDone func(error)) {
			rsp := sup.g.tracer.BeginChild(ctx, s.name, "supervisor", "restore")
			finish := func(err error) {
				rsp.EndErr(err)
				jobDone(err)
			}
			if err := s.vmFromState(in, c.ckptPages, rsp.Context()); err != nil {
				finish(err)
				return
			}
			s.online(in, "recovered", nil, finish)
		},
	}
	policy := retry.Policy{MaxAttempts: 4, Backoff: 500 * sim.Millisecond, MaxBackoff: 4 * sim.Second}
	if err := client.SubmitRetry(in.node.name, job, policy, func(err error) {
		if err != nil {
			abort(err)
			return
		}
		sup.resume(c, o)
	}); err != nil {
		abort(err)
	}
}

// resume restarts the unfinished work of a charge the failover o
// restored, from its checkpointed progress, ends o and re-arms the
// lease.
func (sup *Supervisor) resume(c *charge, o *op) {
	s := c.s
	now := sup.g.k.Now()
	sup.stats.Recoveries++
	sup.stats.RepairSec += now.Sub(s.crashedAt).Seconds()
	c.failSpan.End()
	for _, t := range c.tasks {
		if t.finished {
			continue
		}
		t.baseSec = t.ckptSec
		rem := t.w
		rem.CPUSeconds = t.w.CPUSeconds - t.baseSec
		if rem.CPUSeconds < 1e-3 {
			rem.CPUSeconds = 1e-3
		}
		frac := rem.CPUSeconds / t.w.CPUSeconds
		rem.Reads = int(float64(t.w.Reads) * frac)
		rem.ReadBytes = int64(float64(t.w.ReadBytes) * frac)
		rem.Writes = int(float64(t.w.Writes) * frac)
		rem.WriteBytes = int64(float64(t.w.WriteBytes) * frac)
		rem.RootOps = int(float64(t.w.RootOps) * frac)
		rem.RootBytes = int64(float64(t.w.RootBytes) * frac)
		t.remaining = rem
		t.task = nil
		epoch := s.epoch
		task, err := s.RunTask(rem, func(res guest.TaskResult) { sup.taskDone(c, t, epoch, res) })
		if err != nil {
			// The restore raced another failure; fail the task rather
			// than lose it silently.
			t.fail(now, t.baseSec, fmt.Errorf("%w: resubmit: %v", ErrLeaseExpired, err))
			continue
		}
		t.task = task
	}
	s.end(o)
	c.lossAccounted = false
	_ = sup.renewLease(c)
}

// taskDone merges an incarnation's result into the original request's
// frame of reference and delivers it. epoch is the fencing token
// captured when the task was submitted: a result submitted before the
// last failover (c.since) arrives from a superseded incarnation — the
// double-completion hazard of partition failover — and is rejected, and
// the zombie that sent it is cleaned up.
func (sup *Supervisor) taskDone(c *charge, t *supTask, epoch int64, res guest.TaskResult) {
	if epoch < c.since {
		sup.stats.FencedResults++
		sup.fenceZombie(c, epoch)
		return
	}
	if t.finished {
		return
	}
	t.finished = true
	res.Workload = t.w
	res.Start = t.start
	res.UserSeconds += t.baseSec
	if t.done != nil {
		t.done(res)
	}
}

// giveUp abandons recovery: every unfinished task fails with
// ErrLeaseExpired and the session shuts down.
func (sup *Supervisor) giveUp(c *charge) {
	s := c.s
	now := sup.g.k.Now()
	sup.stats.GivenUp++
	for _, t := range c.tasks {
		if !t.finished {
			t.fail(now, t.ckptSec, fmt.Errorf("%w: %s", ErrLeaseExpired, s.name))
		}
	}
	sup.Release(s)
	s.Shutdown()
	c.dropCheckpoints()
}
