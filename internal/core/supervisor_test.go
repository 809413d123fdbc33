package core

import (
	"errors"
	"testing"

	"vmgrid/internal/guest"
	"vmgrid/internal/sim"
)

// superviseSession adopts s under a fresh supervisor checkpointing to
// the data server, and steps the kernel until the baseline checkpoint
// commits.
func superviseSession(t testing.TB, g *Grid, s *Session, cfg SupervisorConfig) *Supervisor {
	t.Helper()
	if cfg.StableNode == "" {
		cfg.StableNode = "data"
	}
	sup, err := NewSupervisor(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	adopted := false
	if err := sup.Adopt(s, func(err error) {
		if err != nil {
			t.Errorf("baseline checkpoint: %v", err)
		}
		adopted = true
	}); err != nil {
		t.Fatal(err)
	}
	_ = g.Kernel().RunUntil(g.Kernel().Now().Add(10 * sim.Minute))
	if !adopted {
		t.Fatal("baseline checkpoint never committed")
	}
	return sup
}

// stepUntil advances the kernel in one-minute quanta until cond holds
// or the cap elapses. (The supervisor's heartbeats keep the event queue
// non-empty forever, so tests must bound time, not drain the queue.)
func stepUntil(g *Grid, cap sim.Duration, cond func() bool) {
	deadline := g.Kernel().Now().Add(cap)
	for !cond() && g.Kernel().Now() < deadline {
		_ = g.Kernel().RunUntil(g.Kernel().Now().Add(sim.Minute))
	}
}

// failoverScenario runs one supervised 600 s task with the hosting node
// crashing 120 s in, and returns the merged result, the stats, and the
// session.
func failoverScenario(t *testing.T) (guest.TaskResult, SupervisorStats, *Session, sim.Time) {
	t.Helper()
	g := testbed(t)
	s := startSession(t, g, baseConfig())
	sup := superviseSession(t, g, s, SupervisorConfig{CheckpointInterval: 30 * sim.Second})

	var res guest.TaskResult
	finished := false
	if err := sup.Run(s, guest.MicroTask(600), func(r guest.TaskResult) {
		res = r
		finished = true
	}); err != nil {
		t.Fatal(err)
	}
	k := g.Kernel()
	victim := s.Node().Name()
	k.After(120*sim.Second, func() { _ = g.CrashNode(victim) })
	k.After(420*sim.Second, func() { _ = g.RebootNode(victim) })

	stepUntil(g, 2*sim.Hour, func() bool { return finished })
	if !finished {
		t.Fatalf("supervised task never finished; session state %q", s.State())
	}
	end := k.Now()
	checkNoLeaks(t, g)
	sup.Stop()
	return res, sup.Stats(), s, end
}

func TestSupervisorFailoverCompletesWork(t *testing.T) {
	res, stats, s, _ := failoverScenario(t)

	if res.Err != nil {
		t.Fatalf("task error: %v", res.Err)
	}
	if res.UserSeconds != 600 {
		t.Errorf("UserSeconds = %v, want the full 600 (merged across failover)", res.UserSeconds)
	}
	if s.State() != StateRunning {
		t.Errorf("session state = %q after recovery", s.State())
	}
	if s.EventAt("recovered") < 0 {
		t.Errorf("no recovered step; events: %v", s.Events())
	}
	if stats.Crashes != 1 || stats.Recoveries != 1 {
		t.Errorf("crashes/recoveries = %d/%d, want 1/1", stats.Crashes, stats.Recoveries)
	}
	if stats.Checkpoints < 2 {
		t.Errorf("checkpoints = %d, want baseline + periodic", stats.Checkpoints)
	}
	// The crash at t≈120 s lands between 30 s checkpoints, so up to ~35 s
	// of work replays — never more, or checkpoints are not being taken.
	if stats.LostWorkSec <= 0 || stats.LostWorkSec > 40 {
		t.Errorf("lost work = %.1fs, want (0, 40]", stats.LostWorkSec)
	}
	if stats.RepairSec <= 0 || stats.RepairSec > 120 {
		t.Errorf("repair = %.1fs, want quick failover", stats.RepairSec)
	}
}

func TestSupervisorFailoverCostIsOnlyRecoveryTime(t *testing.T) {
	// Failure-free supervised baseline.
	g := testbed(t)
	s := startSession(t, g, baseConfig())
	sup := superviseSession(t, g, s, SupervisorConfig{CheckpointInterval: 30 * sim.Second})
	var base guest.TaskResult
	baseDone := false
	if err := sup.Run(s, guest.MicroTask(600), func(r guest.TaskResult) {
		base = r
		baseDone = true
	}); err != nil {
		t.Fatal(err)
	}
	stepUntil(g, 2*sim.Hour, func() bool { return baseDone })
	if !baseDone || base.Err != nil {
		t.Fatalf("baseline run failed: done=%v err=%v", baseDone, base.Err)
	}
	checkNoLeaks(t, g)
	sup.Stop()

	res, stats, _, _ := failoverScenario(t)
	overhead := res.Elapsed().Seconds() - base.Elapsed().Seconds()
	modeled := stats.LostWorkSec + stats.RepairSec
	if overhead <= 0 {
		t.Fatalf("faulty run (%.1fs) not slower than failure-free (%.1fs)",
			res.Elapsed().Seconds(), base.Elapsed().Seconds())
	}
	// The slowdown must be explained by the modeled recovery: replayed
	// work + repair, plus modest slack for the restore-side staging and
	// extra checkpoints the longer run takes.
	if overhead > modeled+60 {
		t.Errorf("overhead %.1fs exceeds modeled recovery %.1fs + slack",
			overhead, modeled)
	}
}

func TestSupervisorFailoverDeterminism(t *testing.T) {
	res1, stats1, _, end1 := failoverScenario(t)
	res2, stats2, _, end2 := failoverScenario(t)
	if res1 != res2 {
		t.Errorf("results differ across identical runs:\n  %+v\n  %+v", res1, res2)
	}
	if stats1 != stats2 {
		t.Errorf("stats differ across identical runs:\n  %+v\n  %+v", stats1, stats2)
	}
	if end1 != end2 {
		t.Errorf("end times differ: %v vs %v", end1, end2)
	}
}

func TestSupervisorGivesUpAfterMaxRecoveries(t *testing.T) {
	g := testbed(t)
	s := startSession(t, g, baseConfig())
	sup := superviseSession(t, g, s, SupervisorConfig{
		CheckpointInterval: 30 * sim.Second,
		MaxRecoveries:      1,
	})
	var res guest.TaskResult
	finished := false
	if err := sup.Run(s, guest.MicroTask(3600), func(r guest.TaskResult) {
		res = r
		finished = true
	}); err != nil {
		t.Fatal(err)
	}
	k := g.Kernel()
	// Crash whichever node hosts the session, twice: the first failover
	// succeeds, the second exceeds MaxRecoveries.
	k.After(60*sim.Second, func() { _ = g.CrashNode(s.Node().Name()) })
	k.After(300*sim.Second, func() { _ = g.CrashNode(s.Node().Name()) })

	stepUntil(g, 2*sim.Hour, func() bool { return finished })
	if !finished {
		t.Fatalf("task never resolved; state %q", s.State())
	}
	if !errors.Is(res.Err, ErrLeaseExpired) {
		t.Errorf("err = %v, want ErrLeaseExpired", res.Err)
	}
	if s.State() != StateDead {
		t.Errorf("state = %q, want dead after give-up", s.State())
	}
	if st := sup.Stats(); st.GivenUp != 1 || st.Recoveries != 1 {
		t.Errorf("stats = %+v, want 1 recovery then give-up", st)
	}
	checkNoLeaks(t, g)
}

func TestSupervisorAdoptGuards(t *testing.T) {
	g := testbed(t)
	s := startSession(t, g, baseConfig())
	if _, err := NewSupervisor(g, SupervisorConfig{StableNode: "ghost"}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("ghost stable node = %v", err)
	}
	sup, err := NewSupervisor(g, SupervisorConfig{StableNode: "data"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Run(s, guest.MicroTask(1), nil); err == nil {
		t.Error("Run accepted an unsupervised session")
	}
	s.Shutdown()
	if err := sup.Adopt(s, nil); !errors.Is(err, ErrBadSession) {
		t.Errorf("adopt dead session = %v", err)
	}
	checkNoLeaks(t, g)
}
