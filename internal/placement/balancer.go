package placement

import (
	"sort"

	"vmgrid/internal/sim"
)

// Fabric is the narrow view of the grid the balancer acts through. The
// core package implements it; tests substitute fakes. Every method is
// called from kernel context at tick time.
type Fabric interface {
	// Nodes returns the compute nodes to watch, in a deterministic
	// (name) order. Crashed nodes are omitted.
	Nodes() []string
	// NodeLoad returns a node's predicted load — in the grid, the last
	// value of the telemetry TSDB's node.predicted_load series. ok is
	// false when the node has no reading yet.
	NodeLoad(node string) (load float64, ok bool)
	// Sessions returns the names of the migratable sessions hosted on
	// node, in eviction-preference order (name order in the grid).
	// Sessions that are mid-checkpoint, mid-recovery, or already
	// migrating are omitted.
	Sessions(node string) []string
	// Target picks a destination for migrating sess off from, through
	// the same placement code path the supervisor's failover uses,
	// ranked by LeastLoaded: relief goes to the coolest viable node,
	// whatever policy caused the hotspot. ok is false when nothing can
	// host the session.
	Target(sess, from string) (target string, ok bool)
	// Migrate starts a fenced live migration; done fires with its
	// outcome.
	Migrate(sess, target string, done func(error)) error
}

// The balancer's settings. They are Ablation I's values, the only ones
// the adaptation loop runs with.
const (
	// interval is the watch cadence.
	interval = 5 * sim.Second
	// hotLoad is the predicted load at or above which a node counts as
	// hot.
	hotLoad = 2.5
	// clearLoad is the predicted load at or below which a node's hot
	// streak resets. Between clearLoad and hotLoad the streak holds —
	// the hysteresis band that keeps oscillating load from repeatedly
	// re-arming the detector. A migration target must also sit at or
	// below clearLoad, so a move never creates the next hotspot.
	clearLoad = 1.2
	// sustain is how many consecutive hot ticks arm a migration: a
	// hotspot must persist sustain × interval before the balancer acts.
	sustain = 3
	// cooldown is the per-session re-migration holdoff. A session just
	// moved is immune for this long — with the target-load bound above,
	// the ping-pong defense.
	cooldown = 90 * sim.Second
	// maxMoves bounds the balancer's concurrent migrations.
	maxMoves = 1
)

// BalancerStats counts what the balancer saw and did.
type BalancerStats struct {
	// Ticks is how many watch rounds ran.
	Ticks int
	// Hotspots is how many armed hotspots (sustained past sustain)
	// the balancer considered acting on.
	Hotspots int
	// Migrations is how many migrations completed successfully.
	Migrations int
	// Failed is how many migrations started but failed (including
	// fenced ones that raced a failover).
	Failed int
	// Skipped is how many armed hotspots the balancer left alone — no
	// eligible victim, no acceptable target, or the move cap.
	Skipped int
}

// Balancer is the autonomic load-balancing loop: every interval it
// reads each node's predicted load, arms hotspots that stay hot for
// sustain consecutive ticks, and live-migrates one session at a time
// off the hottest node to wherever the placement path says — fenced
// through the epoch machinery so a balancer move can never race a
// partition failover.
type Balancer struct {
	k   *sim.Kernel
	fab Fabric

	running  bool
	next     sim.EventID
	streak   map[string]int
	cool     map[string]sim.Time
	inflight int
	stats    BalancerStats
}

// NewBalancer builds a balancer over the fabric. Start arms it.
func NewBalancer(k *sim.Kernel, fab Fabric) *Balancer {
	return &Balancer{
		k: k, fab: fab,
		streak: make(map[string]int),
		cool:   make(map[string]sim.Time),
	}
}

// Stats returns a snapshot of the counters.
func (b *Balancer) Stats() BalancerStats { return b.stats }

// Start begins the watch loop with an immediate first tick.
func (b *Balancer) Start() {
	if b.running {
		return
	}
	b.running = true
	b.tick()
}

// Stop halts the loop; in-flight migrations run to completion.
func (b *Balancer) Stop() {
	if !b.running {
		return
	}
	b.running = false
	b.k.Cancel(b.next)
	b.next = sim.EventID{}
}

// tick is one watch round: update every node's hot streak, then act on
// armed hotspots hottest-first.
func (b *Balancer) tick() {
	if !b.running {
		return
	}
	b.stats.Ticks++
	type hotspot struct {
		node string
		load float64
	}
	var armed []hotspot
	for _, node := range b.fab.Nodes() {
		load, ok := b.fab.NodeLoad(node)
		if !ok {
			continue
		}
		switch {
		case load >= hotLoad:
			b.streak[node]++
		case load <= clearLoad:
			b.streak[node] = 0
			// Between the thresholds the streak holds: hysteresis.
		}
		if b.streak[node] >= sustain {
			armed = append(armed, hotspot{node, load})
		}
	}
	sort.Slice(armed, func(i, j int) bool {
		if armed[i].load != armed[j].load {
			return armed[i].load > armed[j].load
		}
		return armed[i].node < armed[j].node
	})
	for _, h := range armed {
		b.stats.Hotspots++
		if b.inflight >= maxMoves {
			b.stats.Skipped++
			continue
		}
		if !b.relieve(h.node) {
			b.stats.Skipped++
		}
	}
	b.next = b.k.After(interval, b.tick)
}

// relieve migrates one session off a hot node. It picks the first
// victim not in cooldown, asks the placement path for a target, and
// refuses targets above clearLoad — moving load onto a warm node would
// only relocate the hotspot.
func (b *Balancer) relieve(node string) bool {
	now := b.k.Now()
	for _, sess := range b.fab.Sessions(node) {
		if until, ok := b.cool[sess]; ok && now < until {
			continue
		}
		target, ok := b.fab.Target(sess, node)
		if !ok || target == node {
			continue
		}
		if tl, ok := b.fab.NodeLoad(target); ok && tl > clearLoad {
			continue
		}
		// Re-detect from scratch after the move lands rather than
		// stacking migrations off one reading.
		b.streak[node] = 0
		b.cool[sess] = now.Add(cooldown)
		b.inflight++
		err := b.fab.Migrate(sess, target, func(err error) {
			b.inflight--
			if err != nil {
				b.stats.Failed++
			} else {
				b.stats.Migrations++
			}
		})
		if err != nil {
			b.inflight--
			b.stats.Failed++
		}
		return true
	}
	return false
}
