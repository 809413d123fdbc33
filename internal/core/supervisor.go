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
	"vmgrid/internal/placement"
	"vmgrid/internal/retry"
	"vmgrid/internal/sim"
	"vmgrid/internal/vmm"
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
	// Placer ranks restore-target candidates. nil keeps the information
	// service's ranking (first viable future) — the behavior every
	// recovery experiment was calibrated against. The candidate list is
	// built by the grid's shared placement path either way, so the
	// viability filters (image, slots, bidirectional reachability from
	// the stable node and the front end) are identical to session
	// creation and balancer target selection.
	Placer placement.Placer
	// StageRetry governs the checkpoint staging copies (.mem/.cow to
	// the stable node), the same way vfs mounts and GRAM submits take a
	// retry policy: a transient fabric failure mid-stage re-attempts
	// with capped exponential backoff instead of abandoning the
	// checkpoint. The zero value keeps the historical single attempt.
	StageRetry retry.Policy
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

// charge is one supervised session.
type charge struct {
	s     *Session
	tasks []*supTask

	// slot is the committed checkpoint slot (0 or 1; -1 = none). The
	// next checkpoint stages into the other slot and flips on success,
	// so a crash mid-checkpoint never destroys the last good one.
	slot      int
	ckptPages []int64

	hbNext        sim.EventID
	ckNext        sim.EventID
	checkpointing bool
	recovering    bool
	failSpan      obs.Span
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

	// epoch is the charge's current fencing epoch: bumped through a
	// quorum registry write before every failover, captured by each
	// incarnation's task submissions, and compared in taskDone so a
	// superseded incarnation's results are rejected.
	epoch int64
	// carried marks epochs the one true incarnation previously ran
	// under: a fenced migration bumps the epoch but keeps the guest, so
	// task results submitted under a carried epoch are genuine, not
	// zombie double-completions. Failover clears the set — a new
	// incarnation's history starts from its checkpoint.
	carried map[int64]bool
	// Zombie state: the resources of partitioned-away incarnations,
	// remembered at failover time and released only when each zombie
	// surfaces (the supervisor cannot reach through a partition to kill
	// it). Repeated partitions can maroon several incarnations at once,
	// so the refs form a list keyed by the fencing epoch the incarnation
	// held — a surfacing event names its incarnation by that token, and
	// the others keep their resources until they surface themselves.
	zombies []zombieRef
}

// zombieRef remembers what one marooned incarnation held: the VM to
// power off, the DHCP lease to return, the slot release closure, and
// the fencing epoch the incarnation ran under (its identity).
type zombieRef struct {
	epoch   int64
	vm      *vmm.VM
	node    *Node
	addr    string
	release func()
}

// ckptFile names the checkpoint slot's copy of one state file, by its
// extension (".mem" or ".cow").
func (c *charge) ckptFile(slot int, ext string) string {
	return fmt.Sprintf("%s.ckpt%d%s", c.s.name, slot, ext)
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
	if s.cow == nil {
		return errors.New("core: supervisor requires a non-persistent (COW) session")
	}
	i, dup := sup.chargeIndex(s.name)
	if dup {
		return fmt.Errorf("core: session %q already supervised", s.name)
	}
	c := &charge{s: s, slot: -1, lastRenew: -1}
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
	c := sup.charge(s.name)
	if c == nil {
		return fmt.Errorf("core: session %q not supervised", s.name)
	}
	t := &supTask{w: w, done: done, start: sup.g.k.Now(), remaining: w}
	epoch := c.epoch
	task, err := s.RunTask(w, func(res guest.TaskResult) { sup.taskDone(c, t, epoch, res) })
	if err != nil {
		return err
	}
	t.task = task
	c.tasks = append(c.tasks, t)
	return nil
}

// Release ends supervision without ending the session: ticks stop and
// the lease lapses naturally.
func (sup *Supervisor) Release(s *Session) {
	i, ok := sup.chargeIndex(s.name)
	if !ok {
		return
	}
	c := sup.charges[i]
	c.stopped = true
	sup.g.k.Cancel(c.hbNext)
	sup.g.k.Cancel(c.ckNext)
	sup.g.info.Deregister(gis.KindLease, s.name)
	sup.charges = slices.Delete(sup.charges, i, i+1)
}

// Stop releases every charge, in session-name order.
func (sup *Supervisor) Stop() {
	for len(sup.charges) > 0 {
		sup.Release(sup.charges[0].s)
	}
}

// chargeIndex finds the named session's charge: its index in the
// name-sorted charge list, or where it would be inserted.
func (sup *Supervisor) chargeIndex(name string) (int, bool) {
	return slices.BinarySearchFunc(sup.charges, name, func(c *charge, name string) int {
		return strings.Compare(c.s.name, name)
	})
}

// charge returns the named session's charge, or nil when unsupervised.
func (sup *Supervisor) charge(name string) *charge {
	if i, ok := sup.chargeIndex(name); ok {
		return sup.charges[i]
	}
	return nil
}

// renewLease refreshes the charge's lease as a write originating at
// the session's host: against a replicated registry, a partitioned
// host's renewal fails closed (no quorum) even though the supervisor
// itself is healthy — that failure is the partition detector.
func (sup *Supervisor) renewLease(c *charge) bool {
	host := ""
	if c.s.node != nil {
		host = c.s.node.name
	}
	if err := sup.g.info.RegisterFrom(host, gis.KindLease, c.s.name, map[string]any{
		gis.AttrHost:  host,
		gis.AttrEpoch: c.epoch,
	}, leaseTTL); err != nil {
		return false
	}
	c.lastRenew = sup.g.k.Now()
	return true
}

func (sup *Supervisor) scheduleHeartbeat(c *charge) {
	c.hbNext = sup.g.k.After(heartbeatInterval, func() { sup.heartbeat(c) })
}

func (sup *Supervisor) scheduleCheckpoint(c *charge) {
	c.ckNext = sup.g.k.After(sup.cfg.CheckpointInterval, func() {
		sup.scheduleCheckpoint(c)
		sup.checkpoint(c, nil)
	})
}

// heartbeat is the supervisor's periodic tick for one charge: refresh
// the lease while the host is healthy, detect expiry once it is not.
func (sup *Supervisor) heartbeat(c *charge) {
	if c.stopped {
		return
	}
	s := c.s
	switch s.State() {
	case StateDead:
		sup.Release(s)
		return
	case StateRunning, StateHibernated:
		if sup.renewLease(c) {
			break
		}
		// The host cannot reach a registry quorum: it is on the minority
		// side of a partition. Once the lease expires in the supervisor's
		// (majority-side) view, fail over — with fencing, because unlike a
		// crash the old incarnation is still running over there.
		if !c.recovering {
			if _, err := sup.view().Lookup(gis.KindLease, s.name); err != nil {
				sup.partitionFailover(c)
			}
		}
	case StateCrashed:
		if !c.recovering {
			if _, err := sup.view().Lookup(gis.KindLease, s.name); err != nil {
				sup.failover(c)
			}
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
		if z.node != nil && sup.g.net.Reachable(sup.g.net.Node(sup.cfg.StableNode), z.node.nic) {
			ripe = append(ripe, z.epoch)
		}
	}
	for _, epoch := range ripe {
		sup.fenceZombie(c, epoch)
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
	finish := func(err error) {
		if done != nil {
			done(err)
		}
	}
	s := c.s
	if c.stopped || c.recovering || c.checkpointing || s.migrating || !s.State().CanRun() {
		finish(fmt.Errorf("%w: checkpoint in %q", ErrBadSession, s.State()))
		return
	}
	c.checkpointing = true
	suspendedAt := sup.g.k.Now()
	ep := c.epoch
	sp := sup.g.tracer.BeginChild(s.sctx, s.name, "supervisor", "checkpoint")
	unlock := func(err error) {
		c.checkpointing = false
		sup.stats.CheckpointSec += sup.g.k.Now().Sub(suspendedAt).Seconds()
		sp.EndErr(err)
		finish(err)
	}
	if err := s.vm.Suspend(func(err error) {
		if err != nil {
			unlock(err)
			return
		}
		// Progress and disk state are now frozen; snapshot both.
		snap := make([]float64, len(c.tasks))
		for i, t := range c.tasks {
			snap[i] = t.progressSec()
		}
		pages := s.cow.WrittenPages()
		spare := 0
		if c.slot == 0 {
			spare = 1
		}
		commit := func(err error) error {
			// A checkpoint begun before a failover must not commit: its
			// image is the superseded incarnation's state.
			if err == nil && c.epoch != ep {
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
				sup.g.tracer.Metrics().Counter("core.checkpoints").Inc()
			}
			return err
		}
		if s.node.store.ChunkPlane() != nil {
			// Pipelined checkpoint: the chunked stage snapshots both file
			// manifests synchronously in this event (modeling a COW-
			// protected checkpoint image), so the guest can resume now and
			// compute while the chunks drain to stable storage in the
			// background. Only the frozen window counts as checkpoint
			// overhead; the slot still flips only when staging commits.
			sup.stageCheckpoint(c, spare, func(err error) {
				err = commit(err)
				c.checkpointing = false
				sp.EndErr(err)
				finish(err)
			})
			sup.stats.CheckpointSec += sup.g.k.Now().Sub(suspendedAt).Seconds()
			if s.vm != nil && s.State() == StateRunning {
				_ = s.vm.Unpause()
			}
			return
		}
		sup.stageCheckpoint(c, spare, func(err error) {
			err = commit(err)
			// The node may have crashed while we staged; only a VM still
			// sitting suspended resumes.
			if s.vm != nil && s.State() == StateRunning {
				if uerr := s.vm.Unpause(); uerr != nil && err == nil {
					err = uerr
				}
			}
			unlock(err)
		})
	}); err != nil {
		c.checkpointing = false
		sp.EndErr(err)
		finish(err)
	}
}

// stageBaseBackoff is the base delay between checkpoint-staging
// retries when StageRetry leaves Backoff zero.
const stageBaseBackoff = 500 * sim.Millisecond

// stageFile copies one session state file into the stable store under
// asName, retrying per cfg.StageRetry. Each attempt deletes whatever
// partial file the previous one left, so a retry stages into a clean
// name instead of tripping over ErrExists.
func (sup *Supervisor) stageFile(c *charge, file, asName string, done func(error)) {
	s := c.s
	stable := sup.g.nodes[sup.cfg.StableNode]
	attempts := sup.cfg.StageRetry.Attempts()
	var attempt func(n int)
	attempt = func(n int) {
		dropFiles(stable.store, asName)
		retryOrFail := func(err error) {
			if err != nil && n < attempts {
				sup.g.tracer.Metrics().Counter("core.checkpoint-stage-retries").Inc()
				sup.g.k.After(sup.cfg.StageRetry.Delay(n, stageBaseBackoff), func() {
					attempt(n + 1)
				})
				return
			}
			done(err)
		}
		sup.g.stage(s.node, file, stable, asName, retryOrFail)
	}
	attempt(1)
}

// stageCheckpoint copies the session's .mem and .cow files into the
// given checkpoint slot on the stable node, each copy under the
// supervisor's staging retry policy. With the chunk plane enabled the
// two copies run concurrently — their manifests snapshot in the same
// event, so the pair is one consistent image even while the resumed
// guest keeps dirtying the COW — and only missing chunks cross the
// wire; without it they run back to back, as they always have.
func (sup *Supervisor) stageCheckpoint(c *charge, slot int, done func(error)) {
	s := c.s
	if s.node.store.ChunkPlane() != nil {
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
		sup.stageFile(c, s.name+".mem", c.ckptFile(slot, ".mem"), settle)
		sup.stageFile(c, s.name+".cow", c.ckptFile(slot, ".cow"), settle)
		return
	}
	stagePair(func(ext string, next func(error)) {
		sup.stageFile(c, s.name+ext, c.ckptFile(slot, ext), next)
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
		sup.g.tracer.Metrics().Counter("core.lease-expiries").Inc()
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
	c.recovering = true
	c.checkpointing = false // a checkpoint in flight died with the node
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
		sup.backOff(c, errors.New("no target available"))
		return
	}
	// Fence before the new incarnation can exist: bump the session's
	// epoch through a quorum write. Failure means the supervisor cannot
	// prove it holds the majority view (it may itself be partitioned) —
	// back off rather than risk two live incarnations at the same epoch.
	ep, err := sup.g.info.BumpEpochFrom(sup.cfg.StableNode, s.name)
	if err != nil {
		sup.stats.NoQuorumBackoffs++
		sup.backOff(c, errors.New("no quorum for epoch bump"))
		return
	}
	c.epoch = ep
	s.epoch = ep
	// Migration-carried epochs died with the old incarnation; results
	// still in flight under them are now zombie results and must fence.
	c.carried = nil

	c.recoveries++
	release := target.reserveSlot()

	stageSp := sup.g.tracer.BeginChild(c.failSpan.Context(), s.name, "supervisor", "restore-stage")
	slot := c.slot
	s.moveState(sup.g.nodes[sup.cfg.StableNode], func(ext string) string { return c.ckptFile(slot, ext) },
		target, func(err error) {
			stageSp.EndErr(err)
			if err != nil {
				release()
				sup.backOff(c, err)
				return
			}
			sup.dispatchRestore(c, target, release)
		})
}

// backOff abandons the charge's current recovery attempt: the session
// reads crashed again, the failover span ends with why, and the
// heartbeat may re-detect and retry once a lease has passed.
func (sup *Supervisor) backOff(c *charge, why error) {
	c.s.state = StateCrashed
	c.failSpan.EndErr(why)
	sup.g.k.After(leaseTTL, func() { c.recovering = false })
}

// partitionFailover recovers a charge whose host is partitioned rather
// than dead: lease renewals from the host fail closed and the lease
// has expired in the supervisor's majority-side view. Unlike a crash,
// the old incarnation is still running on the far side — so the epoch
// is bumped first (refusing to proceed without quorum), and the old
// incarnation's resources are remembered as zombie state, to be
// released when it surfaces (a fence trip or a late task result)
// rather than by reaching through the partition to kill it.
func (sup *Supervisor) partitionFailover(c *charge) {
	s := c.s
	old := c.epoch
	ep, err := sup.g.info.BumpEpochFrom(sup.cfg.StableNode, s.name)
	if err != nil {
		// No quorum from the stable node either: the supervisor itself
		// may be the minority. Do nothing; the heartbeat re-detects.
		sup.stats.NoQuorumBackoffs++
		return
	}
	c.epoch = ep
	s.epoch = ep
	c.carried = nil
	c.zombies = append(c.zombies, zombieRef{
		epoch: old, vm: s.vm, node: s.node, addr: s.addr, release: s.slotRelease,
	})
	s.slotRelease = nil
	s.addr = ""
	s.crashedAt = sup.g.k.Now()
	s.state = StateCrashed
	s.mark("partitioned")
	sup.failover(c)
}

// fenceZombie releases what the marooned incarnation that ran under
// the given epoch held, once it has surfaced. Other, still-unsurfaced
// zombies keep their resources — releasing a slot out from under a VM
// still running on the far side would mint capacity. Safe to call when
// no zombie matches.
func (sup *Supervisor) fenceZombie(c *charge, epoch int64) {
	kept := c.zombies[:0]
	fenced := false
	for _, z := range c.zombies {
		if z.epoch != epoch {
			kept = append(kept, z)
			continue
		}
		fenced = true
		if z.vm != nil {
			z.vm.PowerOff()
		}
		if z.addr != "" && z.node != nil && !z.node.crashed && z.node.dhcp != nil {
			_ = z.node.dhcp.Release(z.addr)
		}
		if z.release != nil {
			z.release()
		}
	}
	c.zombies = kept
	if !fenced {
		return
	}
	c.s.mark("fenced")
	sup.stats.ZombiesFenced++
	sup.g.tracer.Metrics().Counter("core.zombies-fenced").Inc()
	sup.g.incidentNow("fence", c.s.name)
}

// pickTarget picks the restore target through the grid's shared
// placement path: candidates come from the supervisor's registry view,
// filtered for the session's base image and for bidirectional
// reachability from the stable node (checkpoint staging and its acks)
// and the front end (restore dispatch and its result) — a partitioned
// host still advertises a stale future, and a half-dead node with a
// muted transmit side would swallow the replies and hang the failover.
// cfg.Placer then ranks what survives; nil keeps registry order.
func (sup *Supervisor) pickTarget(s *Session) *Node {
	futures := sup.view().FindFutures(gis.FutureQuery{
		MinMemBytes: s.cfg.MemBytes,
		Site:        s.cfg.Site,
	})
	cands := sup.g.futureCandidates(futures, s.cfg.Image, "",
		sup.cfg.StableNode, s.cfg.FrontEnd)
	name, ok := placeWith(sup.cfg.Placer, placement.Request{
		Session:     s.name,
		User:        s.cfg.User,
		Image:       s.cfg.Image,
		Site:        s.cfg.Site,
		MinMemBytes: s.cfg.MemBytes,
	}, cands)
	if !ok {
		return nil
	}
	return sup.g.nodes[name]
}

// dispatchRestore submits the restore job through GRAM from the
// session's front end and, on success, resubmits the remaining work.
// release frees the slot reserved on target if the restore fails.
func (sup *Supervisor) dispatchRestore(c *charge, target *Node, release func()) {
	s := c.s
	abort := func(err error) {
		release()
		sup.backOff(c, err)
	}
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
	ep := c.epoch
	job := gram.Job{
		Name: "restore-vm:" + s.name,
		User: s.cfg.User,
		Ctx:  c.failSpan.Context(),
		// The fencing token rides the job: if a newer failover bumped the
		// epoch while this dispatch sat in retry backoff, the gatekeeper
		// rejects the stale restore instead of resurrecting a zombie.
		Fence: func() error {
			if c.epoch != ep {
				return ErrFencedEpoch
			}
			return nil
		},
		RunCtx: func(ctx obs.SpanContext, jobDone func(error)) {
			rsp := sup.g.tracer.BeginChild(ctx, s.name, "supervisor", "restore")
			s.restoreFrom(target, c.ckptPages, rsp.Context(), func(err error) {
				rsp.EndErr(err)
				jobDone(err)
			})
		},
	}
	policy := retry.Policy{MaxAttempts: 4, Backoff: 500 * sim.Millisecond, MaxBackoff: 4 * sim.Second}
	if err := client.SubmitRetry(target.name, job, policy, func(err error) {
		if err != nil {
			abort(err)
			return
		}
		s.slotRelease = release
		sup.resume(c)
	}); err != nil {
		abort(err)
	}
}

// resume restarts the unfinished work of a freshly restored charge from
// its checkpointed progress and re-arms the lease and ticks.
func (sup *Supervisor) resume(c *charge) {
	s := c.s
	now := sup.g.k.Now()
	sup.stats.Recoveries++
	sup.stats.RepairSec += now.Sub(s.crashedAt).Seconds()
	sup.g.tracer.Metrics().Counter("core.recoveries").Inc()
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
		epoch := c.epoch
		task, err := s.RunTask(rem, func(res guest.TaskResult) { sup.taskDone(c, t, epoch, res) })
		if err != nil {
			// The restore raced another failure; fail the task rather
			// than lose it silently.
			t.finished = true
			if t.done != nil {
				t.done(guest.TaskResult{
					Workload: t.w, Start: t.start, End: now,
					UserSeconds: t.baseSec,
					Err:         fmt.Errorf("%w: resubmit: %v", ErrLeaseExpired, err),
				})
			}
			continue
		}
		t.task = task
	}
	c.recovering = false
	c.lossAccounted = false
	_ = sup.renewLease(c)
}

// taskDone merges an incarnation's result into the original request's
// frame of reference and delivers it. epoch is the fencing token
// captured when the task was submitted: a result arriving from a
// superseded incarnation — the double-completion hazard of partition
// failover — is rejected, and the zombie that sent it is cleaned up.
func (sup *Supervisor) taskDone(c *charge, t *supTask, epoch int64, res guest.TaskResult) {
	if epoch != c.epoch && !c.carried[epoch] {
		sup.stats.FencedResults++
		sup.g.tracer.Metrics().Counter("core.fenced-results").Inc()
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
		if t.finished {
			continue
		}
		t.finished = true
		if t.done != nil {
			t.done(guest.TaskResult{
				Workload: t.w, Start: t.start, End: now,
				UserSeconds: t.ckptSec,
				Err:         fmt.Errorf("%w: %s", ErrLeaseExpired, s.name),
			})
		}
	}
	sup.Release(s)
	s.Shutdown()
}
