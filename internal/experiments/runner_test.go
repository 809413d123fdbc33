package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRunSamplesOrdersResults(t *testing.T) {
	got, err := RunSamples(1, 100, 8, func(i int, _ uint64) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestRunSamplesSeedsMatchSerial(t *testing.T) {
	// The seed handed to sample i must be SampleSeed(base, i) at every
	// worker count — the parallel schedule must not leak into seeding.
	const base = 99
	for _, workers := range []int{1, 3, 16} {
		seeds, err := RunSamples(base, 50, workers,
			func(i int, seed uint64) (uint64, error) { return seed, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range seeds {
			if want := SampleSeed(base, i); s != want {
				t.Fatalf("workers=%d: seed[%d] = %#x, want %#x", workers, i, s, want)
			}
		}
	}
}

func TestRunSamplesPropagatesFirstError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := RunSamples(1, 100, workers, func(i int, _ uint64) (int, error) {
			if i == 7 {
				return 0, fmt.Errorf("sample %d: %w", i, boom)
			}
			return i, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
	}
}

func TestRunSamplesErrorCancelsStragglers(t *testing.T) {
	// After the first failure, unstarted samples must not run: the error
	// cancels the shared context and workers stop claiming indices.
	var ran atomic.Int64
	release := make(chan struct{})
	var once sync.Once
	_, err := RunSamples(1, 10_000, 2, func(i int, _ uint64) (int, error) {
		ran.Add(1)
		var failed error
		once.Do(func() {
			failed = errors.New("first failure")
			close(release)
		})
		if failed != nil {
			return 0, failed
		}
		<-release // everyone else waits until the failure is recorded
		return i, nil
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if n := ran.Load(); n > 100 {
		t.Fatalf("ran %d samples after failure; cancellation did not stop the fan-out", n)
	}
}

func TestRunSamplesEmpty(t *testing.T) {
	got, err := RunSamples(1, 0, 4, func(i int, _ uint64) (int, error) {
		t.Fatal("sample ran for n=0")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

// TestSweepContract pins the paired sweep: out[cell][arm] lists that
// arm's samples in sample order, every arm of a sample runs on that
// sample's seed, the result is equal at workers 1 and 8, and the first
// error names its cell, arm and sample.
func TestSweepContract(t *testing.T) {
	const base, cells, samples, arms = 11, 3, 4, 2
	type call struct {
		cell, arm int
		seed      uint64
	}
	run := func(workers int) [][][]call {
		out, err := sweep(base, cells, samples, arms, workers, func(c, a int, seed uint64) (call, error) {
			return call{c, a, seed}, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}
	serial := run(1)
	for c := 0; c < cells; c++ {
		for a := 0; a < arms; a++ {
			if len(serial[c][a]) != samples {
				t.Fatalf("cell %d arm %d: %d samples, want %d", c, a, len(serial[c][a]), samples)
			}
			for s, got := range serial[c][a] {
				if want := (call{c, a, SampleSeed(base, c*samples+s)}); got != want {
					t.Errorf("out[%d][%d][%d] = %+v, want %+v", c, a, s, got, want)
				}
			}
		}
	}
	if parallel := run(8); !reflect.DeepEqual(serial, parallel) {
		t.Errorf("workers=8 differs from workers=1:\n%+v\n%+v", parallel, serial)
	}

	// Cell 2's arm 1 fails at samples 1 and 3: the lower sample wins.
	boom := errors.New("boom")
	failAt := map[uint64]bool{SampleSeed(base, 2*samples+1): true, SampleSeed(base, 2*samples+3): true}
	for _, workers := range []int{1, 8} {
		_, err := sweep(base, cells, samples, arms, workers, func(c, a int, seed uint64) (int, error) {
			if c == 2 && a == 1 && failAt[seed] {
				return 0, boom
			}
			return 0, nil
		})
		if !errors.Is(err, boom) || err.Error() != "cell 2, arm 1, sample 1: boom" {
			t.Errorf("workers=%d: err = %v, want cell 2, arm 1, sample 1: boom", workers, err)
		}
	}
}

func TestDefaultWorkers(t *testing.T) {
	if DefaultWorkers(3) != 3 {
		t.Error("explicit worker count not respected")
	}
	if DefaultWorkers(0) < 1 || DefaultWorkers(-1) < 1 {
		t.Error("defaulted worker count not positive")
	}
}

// TestSampleSeedCollisionFree is the property test for the SplitMix64
// derivation: across 10k sample indices of a random base seed, every
// derived seed is distinct (and none collides with the base itself).
func TestSampleSeedCollisionFree(t *testing.T) {
	prop := func(base uint64) bool {
		seen := make(map[uint64]struct{}, 10_001)
		seen[base] = struct{}{}
		for i := 0; i < 10_000; i++ {
			s := SampleSeed(base, i)
			if _, dup := seen[s]; dup {
				return false
			}
			seen[s] = struct{}{}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// ---------------------------------------------------------------------
// Determinism: every experiment must produce exactly equal rows at
// workers=1 (pure serial) and workers=8, from the same seed.
// ---------------------------------------------------------------------

func assertWorkerInvariant[T any](t *testing.T, name string, run func(workers int) ([]T, error)) {
	t.Helper()
	serial, err := run(1)
	if err != nil {
		t.Fatalf("%s workers=1: %v", name, err)
	}
	parallel, err := run(8)
	if err != nil {
		t.Fatalf("%s workers=8: %v", name, err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("%s: rows differ between workers=1 and workers=8:\nserial:   %+v\nparallel: %+v",
			name, serial, parallel)
	}
}

func TestFigure1WorkerInvariant(t *testing.T) {
	assertWorkerInvariant(t, "fig1", func(workers int) ([]Fig1Row, error) {
		return Figure1(Fig1Config{Seed: 3, Samples: 40, Workers: workers})
	})
}

func TestTable1WorkerInvariant(t *testing.T) {
	assertWorkerInvariant(t, "table1", func(workers int) ([]Table1Row, error) {
		return Table1(3, workers)
	})
}

func TestTable2WorkerInvariant(t *testing.T) {
	assertWorkerInvariant(t, "table2", func(workers int) ([]Table2Row, error) {
		return Table2(Table2Config{Seed: 3, Samples: 2, Workers: workers})
	})
}

func TestAblationStagingWorkerInvariant(t *testing.T) {
	assertWorkerInvariant(t, "staging", func(workers int) ([]StagingRow, error) {
		return AblationStaging(3, workers)
	})
}

func TestAblationProxyCacheWorkerInvariant(t *testing.T) {
	assertWorkerInvariant(t, "cache", func(workers int) ([]CacheRow, error) {
		return AblationProxyCache(3, 3, workers)
	})
}

func TestAblationSchedulingWorkerInvariant(t *testing.T) {
	assertWorkerInvariant(t, "sched", func(workers int) ([]SchedRow, error) {
		return AblationScheduling(3, workers)
	})
}

func TestAblationMigrationWorkerInvariant(t *testing.T) {
	assertWorkerInvariant(t, "migration", func(workers int) ([]MigrationRow, error) {
		return AblationMigration(3, workers)
	})
}

func TestAblationPredictorsWorkerInvariant(t *testing.T) {
	assertWorkerInvariant(t, "rps", func(workers int) ([]PredictorRow, error) {
		return AblationPredictors(3, workers)
	})
}

func TestAblationRecoveryWorkerInvariant(t *testing.T) {
	assertWorkerInvariant(t, "recovery", func(workers int) ([]RecoveryRow, error) {
		return AblationRecovery(3, 2, workers)
	})
}

func TestAblationPartitionWorkerInvariant(t *testing.T) {
	assertWorkerInvariant(t, "partition", func(workers int) ([]PartitionRow, error) {
		return AblationPartition(3, 2, workers)
	})
}

// TestAblationPartitionInvariantsAcrossSeeds re-rolls the chaos
// schedule: every partitionRun enforces the safety invariants (no
// acked write lost, exactly one completion, post-heal convergence)
// and surfaces violations as errors, so a clean pass across seeds is
// the acceptance check itself.
func TestAblationPartitionInvariantsAcrossSeeds(t *testing.T) {
	for _, seed := range []uint64{5, 9, 13} {
		if _, err := AblationPartition(seed, 1, 8); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestAblationOverlayWorkerInvariant(t *testing.T) {
	assertWorkerInvariant(t, "overlay", func(workers int) ([]OverlayRow, error) {
		return AblationOverlay(3, workers)
	})
}
