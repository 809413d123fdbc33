package core

import (
	"errors"
	"testing"

	"vmgrid/internal/guest"
	"vmgrid/internal/sim"
	"vmgrid/internal/vmm"
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
// crashing 120 s in (and rebooting at 420 s), and returns the merged
// result, the stats, and the session. poll, when non-nil, runs every
// 50 ms after the crash until it returns true.
func failoverScenario(t *testing.T, poll func(g *Grid, s *Session) bool) (guest.TaskResult, SupervisorStats, *Session, sim.Time) {
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
	if poll != nil {
		var tick func()
		tick = func() {
			if !poll(g, s) {
				k.After(50*sim.Millisecond, tick)
			}
		}
		k.After(120*sim.Second, tick)
	}

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
	res, stats, s, _ := failoverScenario(t, nil)

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

// TestCrashMidRestoreFailsOverAgain: the restore target crashing while
// the failover's VM restores there ends that attempt (the crash powers
// the restoring VM off, which ends its start) instead of hanging it; a
// later failover, once the first host is back, finishes the work.
func TestCrashMidRestoreFailsOverAgain(t *testing.T) {
	var target string
	res, stats, _, _ := failoverScenario(t, func(g *Grid, s *Session) bool {
		if vm, n := s.VM(), s.Node(); vm != nil && vm.State() == vmm.StateRestoring && !n.Crashed() {
			target = n.Name()
			_ = g.CrashNode(target)
		}
		return target != ""
	})
	if target == "" {
		t.Fatal("no failover restore to crash")
	}
	if res.Err != nil || res.UserSeconds != 600 {
		t.Errorf("task: UserSeconds %v, error %v; want the full 600 s", res.UserSeconds, res.Err)
	}
	if stats.Recoveries != 1 {
		t.Errorf("recoveries = %d, want 1 (the restore on %s failed)", stats.Recoveries, target)
	}
}

// TestShutdownDuringFailover: a Shutdown while a failover restages the
// checkpoint, dispatches the restore or restores the VM cancels the
// failover there. The session stays dead (backing off does not make it
// crashed again, so no later failover revives it), the restore target
// keeps no file of the session, and nothing leaks.
func TestShutdownDuringFailover(t *testing.T) {
	// Failover starts once the lease expires, 6 s after the crash: the
	// memory image restages for ~15 s, the restore job dispatches for
	// ~1.3 s, and the VM initializes and restores for ~6 s.
	for _, after := range []sim.Duration{0, 5 * sim.Second, 15200 * sim.Millisecond, 16 * sim.Second, 19 * sim.Second} {
		t.Run(after.String(), func(t *testing.T) {
			g := testbed(t)
			s := startSession(t, g, baseConfig())
			sup := superviseSession(t, g, s, SupervisorConfig{CheckpointInterval: 30 * sim.Second})
			if err := sup.Run(s, guest.MicroTask(600), func(guest.TaskResult) {}); err != nil {
				t.Fatal(err)
			}
			k := g.Kernel()
			victim := s.Node().Name()
			target := "compute2"
			if victim == target {
				target = "compute1"
			}
			k.After(120*sim.Second, func() { _ = g.CrashNode(victim) })
			deadline := k.Now().Add(10 * sim.Minute)
			for s.State() != StateRecovering && k.Now() < deadline {
				_ = k.RunFor(10 * sim.Millisecond)
			}
			if s.State() != StateRecovering {
				t.Fatalf("no failover began (state %q)", s.State())
			}
			_ = k.RunFor(after)
			s.Shutdown()
			revived := false
			for end := k.Now().Add(10 * sim.Minute); k.Now() < end; {
				_ = k.RunFor(sim.Second)
				revived = revived || s.State() != StateDead
			}
			if revived {
				t.Errorf("session left the dead state after Shutdown (now %q)", s.State())
			}
			if got := left(s, g.Node(target)); len(got) != 0 {
				t.Errorf("%s lists %v after Shutdown, want none of the session's files", target, got)
			}
			checkNoLeaks(t, g)
		})
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

	res, stats, _, _ := failoverScenario(t, nil)
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
	res1, stats1, _, end1 := failoverScenario(t, nil)
	res2, stats2, _, end2 := failoverScenario(t, nil)
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

// migrateFenced runs one fenced migration of s to target and fails the
// test unless it succeeds within an hour.
func migrateFenced(t *testing.T, g *Grid, s *Session, target string) {
	t.Helper()
	var merr error
	done := false
	if err := s.MigrateFenced(target, func(err error) { merr, done = err, true }); err != nil {
		t.Fatal(err)
	}
	stepUntil(g, sim.Hour, func() bool { return done })
	if !done || merr != nil {
		t.Fatalf("fenced migration to %s: done=%v err=%v", target, done, merr)
	}
}

// TestAdoptAfterFencedMigration: a session adopted after a fenced
// migration took it to epoch 1 must not fence its own results when a
// later fenced migration moves it on — the task runs in the one true
// incarnation throughout.
func TestAdoptAfterFencedMigration(t *testing.T) {
	g := testbed(t)
	s := startSession(t, g, baseConfig())
	home := s.Node().Name()
	away := "compute2"
	if home == away {
		away = "compute1"
	}
	migrateFenced(t, g, s, away)
	if s.Epoch() != 1 {
		t.Fatalf("epoch %d after one fenced migration, want 1", s.Epoch())
	}
	// A long interval keeps periodic checkpoints out of the migration.
	sup := superviseSession(t, g, s, SupervisorConfig{CheckpointInterval: 30 * sim.Minute})
	var res guest.TaskResult
	finished := false
	if err := sup.Run(s, guest.MicroTask(300), func(r guest.TaskResult) { res, finished = r, true }); err != nil {
		t.Fatal(err)
	}
	_ = g.Kernel().RunUntil(g.Kernel().Now().Add(30 * sim.Second))
	migrateFenced(t, g, s, home)
	stepUntil(g, 3*sim.Hour, func() bool { return finished })
	if !finished {
		t.Fatalf("task never completed; session %q at epoch %d, %d results fenced",
			s.State(), s.Epoch(), sup.Stats().FencedResults)
	}
	if res.Err != nil {
		t.Errorf("task error: %v", res.Err)
	}
	if st := sup.Stats(); st.FencedResults != 0 {
		t.Errorf("%d genuine results fenced as zombie results", st.FencedResults)
	}
	checkNoLeaks(t, g)
}

// TestAdoptRefusesSecondSupervisor: a session has one supervisor. A
// second Adopt is refused (two would each fail the session over on
// their own, and one's tasks would be lost), the first supervisor
// recovers its task across a crash, and once it releases the session
// another supervisor may take it.
func TestAdoptRefusesSecondSupervisor(t *testing.T) {
	g := testbed(t)
	s := startSession(t, g, baseConfig())
	sup := superviseSession(t, g, s, SupervisorConfig{CheckpointInterval: 30 * sim.Second})
	other, err := NewSupervisor(g, SupervisorConfig{StableNode: "data"})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Adopt(s, nil); err == nil {
		t.Fatal("a second supervisor adopted an already supervised session")
	}
	if err := other.Run(s, guest.MicroTask(600), nil); err == nil {
		t.Error("Run through a supervisor that does not hold the session was accepted")
	}
	var res guest.TaskResult
	finished := false
	if err := sup.Run(s, guest.MicroTask(600), func(r guest.TaskResult) { res, finished = r, true }); err != nil {
		t.Fatal(err)
	}
	_ = g.Kernel().RunUntil(g.Kernel().Now().Add(120 * sim.Second))
	if err := g.CrashNode(s.Node().Name()); err != nil {
		t.Fatal(err)
	}
	stepUntil(g, 2*sim.Hour, func() bool { return finished })
	if !finished || res.Err != nil {
		t.Fatalf("task across the crash: finished=%v err=%v", finished, res.Err)
	}
	if st := sup.Stats(); st.Recoveries != 1 {
		t.Errorf("recoveries = %d, want 1", st.Recoveries)
	}
	checkNoLeaks(t, g)
	sup.Release(s)
	if err := other.Adopt(s, nil); err != nil {
		t.Errorf("adopt after release: %v", err)
	}
}

// TestShutdownDropsCheckpoints: Shutdown of a supervised session takes
// its checkpoint slots off the stable node, whether it lands between
// checkpoints or while one is staging into the spare slot; Release
// alone keeps them.
func TestShutdownDropsCheckpoints(t *testing.T) {
	for _, tc := range []struct {
		name    string
		staging bool // shut down once a checkpoint stage has begun
		release bool // Release instead of Shutdown
	}{
		{name: "between-checkpoints"},
		{name: "mid-checkpoint", staging: true},
		{name: "release", release: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := testbed(t)
			s := startSession(t, g, baseConfig())
			sup := superviseSession(t, g, s, SupervisorConfig{CheckpointInterval: 30 * sim.Second})
			if err := sup.Run(s, guest.MicroTask(6000), nil); err != nil {
				t.Fatal(err)
			}
			k := g.Kernel()
			data := g.Node("data")
			_ = k.RunFor(95 * sim.Second)
			if tc.staging {
				// Step until the next checkpoint has suspended the VM
				// and is staging its image into the spare slot.
				staging := func() bool { return s.op.is(opCheckpoint) && s.cur.vm.State() == vmm.StateSuspended }
				for i := 0; i < 10000 && !staging(); i++ {
					_ = k.RunFor(10 * sim.Millisecond)
				}
				if !staging() {
					t.Fatal("no checkpoint staging to shut down during")
				}
			}
			if got := left(s, data); len(got) == 0 {
				t.Fatal("no checkpoint on the stable node before the Shutdown")
			}
			if tc.release {
				sup.Release(s)
			} else {
				s.Shutdown()
			}
			_ = k.RunUntil(k.Now().Add(10 * sim.Minute))
			got := left(s, data)
			if tc.release && len(got) == 0 {
				t.Error("Release dropped the checkpoint slots")
			}
			if !tc.release && len(got) != 0 {
				t.Errorf("data lists %v 10 min after Shutdown, want no checkpoint", got)
			}
			checkNoLeaks(t, g)
		})
	}
}
