package placement

import (
	"testing"

	"vmgrid/internal/sim"
)

// fakeFabric is a two-node world where migrations move sessions
// instantly and load follows a scripted or derived function.
type fakeFabric struct {
	nodes    []string
	loads    map[string]func() float64
	sessions map[string][]string
	target   string
	moves    []string // "sess:from->to"
	failNext error
}

func (f *fakeFabric) Nodes() []string { return f.nodes }

func (f *fakeFabric) NodeLoad(node string) (float64, bool) {
	fn, ok := f.loads[node]
	if !ok {
		return 0, false
	}
	return fn(), true
}

func (f *fakeFabric) Sessions(node string) []string { return f.sessions[node] }

func (f *fakeFabric) Target(sess, from string) (string, bool) {
	if f.target == "" || f.target == from {
		return "", false
	}
	return f.target, true
}

func (f *fakeFabric) Migrate(sess, target string, done func(error)) error {
	if err := f.failNext; err != nil {
		f.failNext = nil
		done(err)
		return nil
	}
	var from string
	for node, list := range f.sessions {
		for i, s := range list {
			if s == sess {
				from = node
				f.sessions[node] = append(append([]string(nil), list[:i]...), list[i+1:]...)
			}
		}
	}
	f.sessions[target] = append(f.sessions[target], sess)
	f.moves = append(f.moves, sess+":"+from+"->"+target)
	done(nil)
	return nil
}

func constLoad(v float64) func() float64 { return func() float64 { return v } }

func newTestBalancer(fab *fakeFabric) (*sim.Kernel, *Balancer) {
	k := sim.NewKernel(1)
	return k, NewBalancer(k, fab)
}

// at is the instant halfway between the balancer's n'th and n+1'th
// ticks (the first tick, n = 0, runs at t = 0).
func at(n int) sim.Time { return sim.Time(sim.Duration(n)*interval + interval/2) }

func TestBalancerMigratesSustainedHotspot(t *testing.T) {
	fab := &fakeFabric{
		nodes: []string{"c1", "c2"},
		loads: map[string]func() float64{"c1": constLoad(3.0), "c2": constLoad(0.2)},
		sessions: map[string][]string{
			"c1": {"sess-1", "sess-2"},
			"c2": {},
		},
		target: "c2",
	}
	k, b := newTestBalancer(fab)
	b.Start()

	// Two ticks (t=0, t=5s): streak below sustain, nothing moves.
	_ = k.RunUntil(at(1))
	if len(fab.moves) != 0 {
		t.Fatalf("balancer moved before sustain ticks: %v", fab.moves)
	}
	// Third tick arms the hotspot.
	_ = k.RunUntil(at(2))
	if len(fab.moves) != 1 || fab.moves[0] != "sess-1:c1->c2" {
		t.Fatalf("moves = %v, want [sess-1:c1->c2]", fab.moves)
	}
	if st := b.Stats(); st.Migrations != 1 || st.Hotspots != 1 {
		t.Errorf("stats = %+v, want 1 migration / 1 hotspot", st)
	}
	b.Stop()
}

// TestBalancerHysteresisNoPingPong: load that oscillates hot → clear →
// hot (a bursty node that keeps draining) must never arm a migration —
// every clear reading resets the streak, so no burst shorter than
// sustain can trigger a move.
func TestBalancerHysteresisNoPingPong(t *testing.T) {
	tick := 0
	fab := &fakeFabric{
		nodes: []string{"c1", "c2"},
		loads: map[string]func() float64{
			// Alternates 3.0 (hot), 0.5 (clear), 3.0, 0.5, ... — never two
			// consecutive hot readings.
			"c1": func() float64 {
				tick++
				if tick%2 == 1 {
					return 3.0
				}
				return 0.5
			},
			"c2": constLoad(0.2),
		},
		sessions: map[string][]string{"c1": {"sess-1"}, "c2": {}},
		target:   "c2",
	}
	k, b := newTestBalancer(fab)
	b.Start()
	_ = k.RunUntil(at(30))
	if len(fab.moves) != 0 {
		t.Fatalf("oscillating load migrated anyway: %v", fab.moves)
	}
	b.Stop()
}

// TestBalancerBandHoldsStreak: dips into the hysteresis band (between
// clearLoad and hotLoad) hold the hot streak rather than resetting it —
// a node hovering around hotLoad is still a persistent hotspot and is
// eventually relieved, just slower.
func TestBalancerBandHoldsStreak(t *testing.T) {
	tick := 0
	fab := &fakeFabric{
		nodes: []string{"c1", "c2"},
		loads: map[string]func() float64{
			// Alternates 3.0 (hot), 1.8 (band), ... — hot half the time,
			// never clear.
			"c1": func() float64 {
				tick++
				if tick%2 == 1 {
					return 3.0
				}
				return 1.8
			},
			"c2": constLoad(0.2),
		},
		sessions: map[string][]string{"c1": {"sess-1"}, "c2": {}},
		target:   "c2",
	}
	k, b := newTestBalancer(fab)
	b.Start()
	// Hot readings land on ticks 1, 3, 5; the streak holds through the
	// band dips, so the third hot reading (tick 5, t=20s) arms the move.
	_ = k.RunUntil(at(3))
	if len(fab.moves) != 0 {
		t.Fatalf("moved before three hot readings accumulated: %v", fab.moves)
	}
	_ = k.RunUntil(at(4))
	if len(fab.moves) != 1 {
		t.Fatalf("band dips reset the streak; hovering hotspot never relieved: %v", fab.moves)
	}
	b.Stop()
}

// TestBalancerCooldownBlocksReMigration: after a session moves, it is
// immune for cooldown even if its new home immediately runs hot.
func TestBalancerCooldownBlocksReMigration(t *testing.T) {
	fab := &fakeFabric{
		nodes: []string{"c1", "c2"},
		// Both sides look permanently hot except the current target —
		// Target() always offers the other node, so without cooldown the
		// session would bounce every sustain ticks.
		loads:    map[string]func() float64{"c1": constLoad(3.0), "c2": constLoad(0.5)},
		sessions: map[string][]string{"c1": {"sess-1"}, "c2": {}},
		target:   "c2",
	}
	k, b := newTestBalancer(fab)
	b.Start()
	// The move lands on the third tick, t=10s.
	_ = k.RunUntil(at(2))
	if len(fab.moves) != 1 {
		t.Fatalf("setup move missing: %v", fab.moves)
	}
	// Now make the session's new home hot and offer c1 back.
	fab.loads["c2"] = constLoad(3.0)
	fab.loads["c1"] = constLoad(0.5)
	fab.target = "c1"
	// c2 arms on the tick at t=25s, but the session is immune until
	// t=100s.
	_ = k.RunUntil(at(19))
	if len(fab.moves) != 1 {
		t.Fatalf("session ping-ponged inside cooldown: %v", fab.moves)
	}
	// Past the cooldown the (still hot) node may shed it again.
	_ = k.RunUntil(at(20))
	if len(fab.moves) != 2 {
		t.Fatalf("session stuck after cooldown expired: %v", fab.moves)
	}
	b.Stop()
}

// TestBalancerRefusesWarmTarget: a target above clearLoad is refused —
// moving the session there would just relocate the hotspot.
func TestBalancerRefusesWarmTarget(t *testing.T) {
	fab := &fakeFabric{
		nodes:    []string{"c1", "c2"},
		loads:    map[string]func() float64{"c1": constLoad(3.0), "c2": constLoad(1.8)},
		sessions: map[string][]string{"c1": {"sess-1"}, "c2": {}},
		target:   "c2",
	}
	k, b := newTestBalancer(fab)
	b.Start()
	_ = k.RunUntil(at(10))
	if len(fab.moves) != 0 {
		t.Fatalf("balancer moved onto a warm target: %v", fab.moves)
	}
	if st := b.Stats(); st.Skipped == 0 {
		t.Error("warm-target refusals not counted as skips")
	}
	b.Stop()
}

func TestBalancerCountsFailedMigrations(t *testing.T) {
	fab := &fakeFabric{
		nodes:    []string{"c1", "c2"},
		loads:    map[string]func() float64{"c1": constLoad(3.0), "c2": constLoad(0.2)},
		sessions: map[string][]string{"c1": {"sess-1"}, "c2": {}},
		target:   "c2",
		failNext: errFake,
	}
	k, b := newTestBalancer(fab)
	b.Start()
	_ = k.RunUntil(at(2))
	if st := b.Stats(); st.Failed != 1 || st.Migrations != 0 {
		t.Errorf("stats = %+v, want 1 failed / 0 migrations", st)
	}
	b.Stop()
}

var errFake = errFakeType{}

type errFakeType struct{}

func (errFakeType) Error() string { return "fake migration failure" }

// TestBalancerThresholdEdges: a reading exactly at hotLoad counts as
// hot, one exactly at clearLoad resets the streak, and a target exactly
// at clearLoad is acceptable.
func TestBalancerThresholdEdges(t *testing.T) {
	tick := 0
	fab := &fakeFabric{
		nodes: []string{"c1", "c2"},
		loads: map[string]func() float64{
			// hot, hot, clear, then hot from tick 4 on: the clear reading
			// restarts the count, so only the sixth tick arms.
			"c1": func() float64 {
				tick++
				if tick == 3 {
					return clearLoad
				}
				return hotLoad
			},
			"c2": constLoad(clearLoad),
		},
		sessions: map[string][]string{"c1": {"sess-1"}, "c2": {}},
		target:   "c2",
	}
	k, b := newTestBalancer(fab)
	b.Start()
	_ = k.RunUntil(at(4))
	if len(fab.moves) != 0 {
		t.Fatalf("a reading at clearLoad did not reset the streak: %v", fab.moves)
	}
	_ = k.RunUntil(at(5))
	if len(fab.moves) != 1 || fab.moves[0] != "sess-1:c1->c2" {
		t.Fatalf("moves = %v, want [sess-1:c1->c2] onto the target at clearLoad", fab.moves)
	}
	b.Stop()
}
