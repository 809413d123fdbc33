package core

import (
	"testing"

	"vmgrid/internal/chunk"
	"vmgrid/internal/guest"
	"vmgrid/internal/sim"
)

// chunkedFailover runs the failover scenario on a chunk-plane grid with
// the given guest dirty rate: a supervised 600 s task, host crash at
// 120 s, reboot at 420 s. Returns the merged result, the supervisor
// stats, the session, and total wire bytes.
func chunkedFailover(t *testing.T, dirtyBps int64) (guest.TaskResult, SupervisorStats, *Session, uint64) {
	t.Helper()
	g := testbed(t)
	g.EnableChunkedStaging(chunk.Config{})
	cfg := baseConfig()
	cfg.DirtyBps = dirtyBps
	s := startSession(t, g, cfg)
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
	sup.Stop()
	return res, sup.Stats(), s, g.Net().BytesSent()
}

// TestDeltaRestoreMatchesFullRestore is the dirty-chunk invariant: a
// session checkpointed with delta suspends (DirtyBps bounding each
// memory image to the dirtied window) must fail over to exactly the
// same user-visible outcome as one checkpointed with full images —
// the full 600 s of merged work, a running session, one recovery —
// while moving strictly fewer bytes on the wire.
func TestDeltaRestoreMatchesFullRestore(t *testing.T) {
	fullRes, fullStats, fullS, fullWire := chunkedFailover(t, 0)
	deltaRes, deltaStats, deltaS, deltaWire := chunkedFailover(t, 256<<10)

	for _, c := range []struct {
		name  string
		res   guest.TaskResult
		stats SupervisorStats
		s     *Session
	}{
		{"full", fullRes, fullStats, fullS},
		{"delta", deltaRes, deltaStats, deltaS},
	} {
		if c.res.Err != nil {
			t.Errorf("%s: task error: %v", c.name, c.res.Err)
		}
		if c.res.UserSeconds != 600 {
			t.Errorf("%s: UserSeconds = %v, want the full 600", c.name, c.res.UserSeconds)
		}
		if c.s.State() != StateRunning {
			t.Errorf("%s: state = %q after recovery", c.name, c.s.State())
		}
		if c.stats.Crashes != 1 || c.stats.Recoveries != 1 {
			t.Errorf("%s: crashes/recoveries = %d/%d, want 1/1",
				c.name, c.stats.Crashes, c.stats.Recoveries)
		}
		if c.stats.LostWorkSec <= 0 || c.stats.LostWorkSec > 40 {
			t.Errorf("%s: lost work = %.1fs, want (0, 40]", c.name, c.stats.LostWorkSec)
		}
	}
	// Delta checkpoints are cheaper, so the delta run must finish no
	// later than the full one (both at least as fast as required).
	if deltaRes.End > fullRes.End {
		t.Errorf("delta run finished at %v, after the full run's %v", deltaRes.End, fullRes.End)
	}
	if deltaWire >= fullWire {
		t.Errorf("delta checkpoints moved %d wire bytes, full moved %d — "+
			"dirty-chunk tracking saved nothing", deltaWire, fullWire)
	}
}

// TestStageCheckpointRetriesThroughTransientOutage: a checkpoint that
// fires while the stable node is unreachable is abandoned, and the
// next periodic tick is its retry — checkpoints commit again once the
// fabric heals.
func TestStageCheckpointRetriesThroughTransientOutage(t *testing.T) {
	g := testbed(t)
	s := startSession(t, g, baseConfig())
	sup := superviseSession(t, g, s, SupervisorConfig{CheckpointInterval: 30 * sim.Second})
	k := g.Kernel()
	n0 := sup.Stats().Checkpoints
	// 40 s outage: at least one checkpoint tick fires inside it.
	if err := g.Net().SetNodeUp("data", false); err != nil {
		t.Fatal(err)
	}
	k.After(40*sim.Second, func() {
		if err := g.Net().SetNodeUp("data", true); err != nil {
			t.Error(err)
		}
	})
	_ = k.RunUntil(k.Now().Add(40 * sim.Second))
	if during := sup.Stats().Checkpoints - n0; during != 0 {
		t.Errorf("committed %d checkpoints during the outage", during)
	}
	_ = k.RunUntil(k.Now().Add(120 * sim.Second))
	if sup.Stats().Checkpoints == n0 {
		t.Errorf("periodic checkpoints never resumed after the outage healed")
	}
	sup.Stop()
}

// TestMigrateBackDedup: with the chunk plane on and a bounded dirty
// rate, migrating a session away and back moves only the pages the
// guest dirtied on the far side — the origin's chunk cache still names
// everything it exported, and arrival primes the delta tracker so the
// return suspend writes a delta rather than the whole image.
func TestMigrateBackDedup(t *testing.T) {
	g := testbed(t)
	g.EnableChunkedStaging(chunk.Config{})
	// 16 KiB/s: the ~20 simulated minutes spent on the far side dirty
	// ~20 MB of the 128 MB image, so the return leg has real dedup to
	// find without being trivially empty.
	cfg := baseConfig()
	cfg.DirtyBps = 16 << 10
	s := startSession(t, g, cfg)
	firstNode := s.Node().Name()
	other := "compute2"
	if firstNode == "compute2" {
		other = "compute1"
	}
	migrate := func(target string) uint64 {
		t.Helper()
		before := g.Net().BytesSent()
		finished := false
		if err := s.Migrate(target, func(err error) {
			if err != nil {
				t.Errorf("migrate to %s: %v", target, err)
			}
			finished = true
		}); err != nil {
			t.Fatal(err)
		}
		_ = g.Kernel().RunUntil(g.Kernel().Now().Add(20 * sim.Minute))
		if !finished {
			t.Fatalf("migration to %s never completed", target)
		}
		return g.Net().BytesSent() - before
	}
	out := migrate(other)
	back := migrate(firstNode)
	if s.Node().Name() != firstNode {
		t.Fatalf("session on %s, want %s", s.Node().Name(), firstNode)
	}
	if back*4 >= out {
		t.Errorf("return migration moved %d bytes vs %d outbound — "+
			"want ≥ 4x dedup from the origin's chunk cache", back, out)
	}
	if s.State() != StateRunning {
		t.Errorf("state = %q after double migration", s.State())
	}
}

// BenchmarkSupervisorCheckpoint is one supervised checkpoint on a
// chunk-plane grid with delta suspends: suspend the VM, stage the
// memory image and COW file into the spare slot on the stable node
// (only missing chunks cross the wire), flip the slot. Ablation J runs
// this path every checkpoint interval.
func BenchmarkSupervisorCheckpoint(b *testing.B) {
	g := testbed(b)
	g.EnableChunkedStaging(chunk.Config{})
	cfg := baseConfig()
	cfg.DirtyBps = 256 << 10
	s := startSession(b, g, cfg)
	// An interval of years keeps the periodic checkpoint out of the loop.
	sup := superviseSession(b, g, s, SupervisorConfig{CheckpointInterval: 100000 * sim.Hour})
	c := s.charge
	k := g.Kernel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := false
		sup.checkpoint(c, func(err error) {
			if err != nil {
				b.Fatalf("checkpoint %d: %v", i, err)
			}
			done = true
		})
		for !done {
			_ = k.RunFor(sim.Second)
		}
	}
	if got := sup.Stats().Checkpoints; got < b.N {
		b.Fatalf("%d checkpoints committed, want ≥ %d", got, b.N)
	}
}
