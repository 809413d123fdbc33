package core

import (
	"errors"
	"testing"

	"vmgrid/internal/guest"
	"vmgrid/internal/placement"
	"vmgrid/internal/sim"
)

func TestCreateSessionNodeHint(t *testing.T) {
	g := testbed(t)
	var sess *Session
	ready := false
	if _, err := g.CreateSession(baseConfig(), func(s *Session, err error) {
		if err != nil {
			t.Errorf("create: %v", err)
		}
		sess, ready = s, true
	}, WithNodeHint("compute2")); err != nil {
		t.Fatal(err)
	}
	_ = g.Kernel().RunUntil(g.Kernel().Now().Add(30 * sim.Minute))
	if !ready {
		t.Fatal("session never ready")
	}
	if got := sess.Node().Name(); got != "compute2" {
		t.Errorf("hinted session landed on %q, want compute2", got)
	}
	checkNoLeaks(t, g)
}

func TestCreateSessionPlacerSpreads(t *testing.T) {
	// Two sessions under least-loaded must not stack on one node while
	// an idle equal candidate exists.
	g := testbed(t)
	s1 := startSessionWith(t, g, WithPlacer(placement.LeastLoaded{}))
	if err := s1.Run(guest.MicroTask(600), nil); err != nil {
		t.Fatal(err)
	}
	_ = g.Kernel().RunUntil(g.Kernel().Now().Add(30 * sim.Second))
	s2 := startSessionWith(t, g, WithPlacer(placement.LeastLoaded{}))
	if s1.Node() == s2.Node() {
		t.Errorf("least-loaded stacked both sessions on %q", s1.Node().Name())
	}
	checkNoLeaks(t, g)
}

func startSessionWith(t *testing.T, g *Grid, opts ...CreateOption) *Session {
	t.Helper()
	var sess *Session
	var serr error
	ready := false
	if _, err := g.CreateSession(baseConfig(), func(s *Session, err error) {
		sess, serr, ready = s, err, true
	}, opts...); err != nil {
		t.Fatal(err)
	}
	stepUntil(g, 30*sim.Minute, func() bool { return ready })
	if !ready || serr != nil {
		t.Fatalf("session setup: ready=%v err=%v", ready, serr)
	}
	return sess
}

// TestFencedMigrationSourceCrashOneIncarnation: the source node dies
// while the fenced migration is staging state to the target. The
// migration must abort — never re-instantiate on the target from the
// half-staged files — leaving exactly one (crashed) incarnation and no
// leaked slot on the target.
func TestFencedMigrationSourceCrashOneIncarnation(t *testing.T) {
	g := testbed(t)
	s := startSession(t, g, baseConfig())
	k := g.Kernel()

	var migErr error
	migDone := false
	if err := s.MigrateFenced("compute2", func(err error) { migErr, migDone = err, true }); err != nil {
		t.Fatal(err)
	}
	_ = k.RunUntil(k.Now().Add(5 * sim.Second))
	if err := g.CrashNode("compute1"); err != nil {
		t.Fatal(err)
	}
	stepUntil(g, sim.Hour, func() bool { return migDone })
	if !migDone {
		t.Fatal("migration callback never fired after source crash")
	}
	if migErr == nil {
		t.Fatal("migration reported success after its source crashed mid-transfer")
	}
	if s.State() == StateRunning {
		t.Errorf("state = %q; a crashed source cannot leave the session live", s.State())
	}
	if s.Node() != nil && s.Node().Name() == "compute2" {
		t.Errorf("session re-homed to the target despite the aborted migration")
	}
	// The aborted migration must not hold a slot on the target.
	if got := g.Node("compute2").Slots(); got != 2 {
		t.Errorf("target slots = %d after aborted migration, want 2", got)
	}
	checkNoLeaks(t, g)
}

// TestFencedMigrationTargetCrashOneIncarnation: the target dies while
// state is staging toward it. The migration must fail without killing
// the (suspended) source incarnation, and no second incarnation may
// exist anywhere.
func TestFencedMigrationTargetCrashOneIncarnation(t *testing.T) {
	g := testbed(t)
	s := startSession(t, g, baseConfig())
	k := g.Kernel()

	var migErr error
	migDone := false
	if err := s.MigrateFenced("compute2", func(err error) { migErr, migDone = err, true }); err != nil {
		t.Fatal(err)
	}
	_ = k.RunUntil(k.Now().Add(5 * sim.Second))
	if err := g.CrashNode("compute2"); err != nil {
		t.Fatal(err)
	}
	stepUntil(g, sim.Hour, func() bool { return migDone })
	if !migDone {
		t.Fatal("migration callback never fired after target crash")
	}
	if migErr == nil {
		t.Fatal("migration reported success onto a crashed target")
	}
	if s.State() == StateDead {
		t.Errorf("session died with its source intact")
	}
	if s.Node() != nil && s.Node().Name() == "compute2" && s.State() == StateRunning {
		t.Errorf("session reports live on the crashed target")
	}
	checkNoLeaks(t, g)
}

// TestSupervisedTaskSurvivesFencedMigration is the carried-epoch
// contract: a balancer-style fenced migration bumps the session's
// fencing epoch mid-task, but the task — submitted under the old epoch
// by the same one true incarnation — must complete normally, not be
// fenced as a zombie result.
func TestSupervisedTaskSurvivesFencedMigration(t *testing.T) {
	g := testbed(t)
	s := startSession(t, g, baseConfig())

	// A long checkpoint interval keeps the periodic checkpoint (which
	// suspends the VM) out of the migration window; the balancer's
	// fabric skips mid-checkpoint sessions the same way.
	sup, err := NewSupervisor(g, SupervisorConfig{StableNode: "data", CheckpointInterval: 30 * sim.Minute})
	if err != nil {
		t.Fatal(err)
	}
	adopted := false
	if err := sup.Adopt(s, func(err error) {
		if err != nil {
			t.Errorf("adopt: %v", err)
		}
		adopted = true
	}); err != nil {
		t.Fatal(err)
	}
	stepUntil(g, sim.Hour, func() bool { return adopted })
	if !adopted {
		t.Fatal("baseline checkpoint never committed")
	}

	var res guest.TaskResult
	taskDone := false
	if err := sup.Run(s, guest.MicroTask(300), func(r guest.TaskResult) {
		res, taskDone = r, true
	}); err != nil {
		t.Fatal(err)
	}
	_ = g.Kernel().RunUntil(g.Kernel().Now().Add(30 * sim.Second))

	epochBefore := s.Epoch()
	var migErr error
	migDone := false
	if err := s.MigrateFenced("compute2", func(err error) { migErr, migDone = err, true }); err != nil {
		t.Fatal(err)
	}
	stepUntil(g, sim.Hour, func() bool { return migDone })
	if !migDone || migErr != nil {
		t.Fatalf("fenced migration: done=%v err=%v", migDone, migErr)
	}
	if s.Epoch() <= epochBefore {
		t.Errorf("epoch %d not bumped past %d by the fenced migration", s.Epoch(), epochBefore)
	}
	if got := s.Node().Name(); got != "compute2" {
		t.Errorf("session on %q after migration, want compute2", got)
	}

	stepUntil(g, 2*sim.Hour, func() bool { return taskDone })
	if !taskDone {
		t.Fatal("task never completed after the fenced migration")
	}
	if res.Err != nil {
		t.Fatalf("task failed across the migration: %v", res.Err)
	}
	st := sup.Stats()
	if st.FencedResults != 0 {
		t.Errorf("FencedResults = %d; the migrated incarnation's own result was fenced", st.FencedResults)
	}
	if st.Crashes != 0 || st.Recoveries != 0 {
		t.Errorf("stats = %+v; migration must not register as a failure", st)
	}
	sup.Stop()
	checkNoLeaks(t, g)
}

// TestMigrateFencedRefusedWithoutQuorum: against a replicated registry
// with the front end partitioned onto the minority side, the fenced
// migration must refuse up front — no state moves, the session stays
// put.
func TestMigrateFencedRefusedWithoutQuorum(t *testing.T) {
	g := testbed(t)
	replicate(t, g)
	s := startSession(t, g, baseConfig())
	// Cut the front end (the epoch bump's origin) off from the other
	// replicas: its quorum write must fail closed.
	if err := g.Net().SetNodeUp("front", false); err != nil {
		t.Fatal(err)
	}
	err := s.MigrateFenced("compute2", nil)
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("err = %v, want ErrNoQuorum", err)
	}
	if s.Node().Name() != "compute1" || s.migrating {
		t.Errorf("refused migration moved state: node=%s migrating=%v", s.Node().Name(), s.migrating)
	}
	checkNoLeaks(t, g)
}

// startLoadSignal enables telemetry and the monitor: the balancer reads
// the scraped node.predicted_load series.
func startLoadSignal(t *testing.T, g *Grid) *Monitor {
	t.Helper()
	col, err := g.EnableTelemetry()
	if err != nil {
		t.Fatal(err)
	}
	col.Start()
	m, err := g.StartMonitor()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBalancerRelievesHotspotEndToEnd drives the real grid fabric: two
// busy sessions packed on one node trip the hysteresis detector and the
// lowest-priority one is live-migrated to the idle node.
func TestBalancerRelievesHotspotEndToEnd(t *testing.T) {
	g := testbed(t)
	defer startLoadSignal(t, g).Stop()
	important := startSessionWith(t, g, WithNodeHint("compute1"), WithPriority(10))
	cheap := startSessionWith(t, g, WithNodeHint("compute1"), WithPriority(0))
	if important.Node().Name() != "compute1" || cheap.Node().Name() != "compute1" {
		t.Fatalf("setup: sessions on %s/%s, want both on compute1",
			important.Node().Name(), cheap.Node().Name())
	}
	for _, s := range []*Session{important, cheap} {
		if err := s.Run(guest.MicroTask(1800), nil); err != nil {
			t.Fatal(err)
		}
	}
	bal, err := g.StartBalancer(BalancerConfig{
		BalancerConfig: placement.BalancerConfig{
			Interval: 5 * sim.Second, HotLoad: 1.5, ClearLoad: 0.75, Sustain: 2,
		},
		Placer: placement.LeastLoaded{},
	})
	if err != nil {
		t.Fatal(err)
	}
	stepUntil(g, 10*sim.Minute, func() bool {
		return cheap.Node().Name() == "compute2" || important.Node().Name() == "compute2"
	})
	bal.Stop()
	if got := bal.Stats().Migrations; got < 1 {
		t.Fatalf("balancer migrations = %d, want >= 1 (stats %+v)", got, bal.Stats())
	}
	if got := cheap.Node().Name(); got != "compute2" {
		t.Errorf("relieved session on %q, want the low-priority one on compute2 (important on %q)",
			got, important.Node().Name())
	}
	if got := important.Node().Name(); got != "compute1" {
		t.Errorf("high-priority session migrated (now on %q); eviction order ignored priority", got)
	}
	if cheap.State() != StateRunning {
		t.Errorf("migrated session state = %q", cheap.State())
	}
	checkNoLeaks(t, g)
}

// TestStartBalancerNeedsLoadSignal: without telemetry and a running
// monitor the balancer has no load input, so it refuses to start.
func TestStartBalancerNeedsLoadSignal(t *testing.T) {
	cfg := BalancerConfig{Placer: placement.LeastLoaded{}}
	g := testbed(t)
	if _, err := g.StartBalancer(cfg); err == nil {
		t.Fatal("balancer started without telemetry or monitor")
	}
	if _, err := g.EnableTelemetry(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.StartBalancer(cfg); err == nil {
		t.Fatal("balancer started without a monitor")
	}
	m, err := g.StartMonitor()
	if err != nil {
		t.Fatal(err)
	}
	m.Stop()
	if _, err := g.StartBalancer(cfg); err == nil {
		t.Fatal("balancer started with a stopped monitor")
	}
	checkNoLeaks(t, g)
}
