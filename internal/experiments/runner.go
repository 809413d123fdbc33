package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the parallel experiment engine. Every table, figure, and
// ablation in this package is a set of independent simulation samples —
// each sample builds its own sim.Kernel, hosts, traces, and RNG inside its
// closure, shares nothing, and is a pure function of (index, seed). That
// lets RunSamples fan samples out across a bounded worker pool while
// keeping the results bit-identical to a serial run: per-sample seeds are
// derived deterministically from the experiment seed with SplitMix64, and
// results are collected in index order regardless of completion order.
//
// Concurrency convention (see DESIGN.md §6): one kernel per goroutine, no
// shared simulation state. A sample closure must never touch another
// sample's kernel or any mutable state outside its own frame.

// DefaultWorkers resolves a worker-count setting: values <= 0 mean "one
// worker per available CPU" (runtime.GOMAXPROCS).
func DefaultWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// SampleSeed derives the seed for sample i from an experiment's base seed
// using the SplitMix64 finalizer. The derived streams are independent and
// collision-free in practice: SplitMix64 is a bijection of the counter
// sequence base + (i+1)·golden, so two indices collide only if the base
// seeds themselves are related by a multiple of the increment.
func SampleSeed(base uint64, i int) uint64 {
	z := base + (uint64(i)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RunSamples executes n independent samples on a bounded worker pool and
// returns their results in index order. Sample i receives SampleSeed(seed,
// i); paired experimental designs (arms that must replay identical
// randomness) are free to ignore it and derive their own sub-seeds from
// the experiment seed — determinism only requires that a sample be a pure
// function of its index.
//
// workers <= 0 selects runtime.GOMAXPROCS(0); workers == 1 runs the
// samples inline on the calling goroutine, which is the exact serial
// semantics. The first error (by lowest sample index) stops the workers
// from starting further samples, and is returned after all in-flight
// samples finish.
func RunSamples[T any](seed uint64, n, workers int, sample func(i int, seed uint64) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	workers = min(DefaultWorkers(workers), n)
	results := make([]T, n)

	if workers == 1 {
		for i := 0; i < n; i++ {
			r, err := sample(i, SampleSeed(seed, i))
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	var (
		next     atomic.Int64 // next sample index to claim
		stopped  atomic.Bool  // set by the first failure
		mu       sync.Mutex
		firstErr error
		errIdx   = n // lowest failing index seen so far
		wg       sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		if i < errIdx {
			errIdx, firstErr = i, err
		}
		mu.Unlock()
		stopped.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				r, err := sample(i, SampleSeed(seed, i))
				if err != nil {
					fail(i, err)
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}
