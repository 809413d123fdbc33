package sim

import (
	"fmt"
	"math"
)

// WorkTracker models a fixed quantity of work draining at a
// piecewise-constant rate — the fluid approximation shared by the CPU,
// disk, and network models. Work is in abstract units (CPU-seconds,
// bytes); rate is units per virtual second. The tracker schedules a
// kernel event for the completion instant and reschedules it whenever
// SetRate changes the drain rate.
type WorkTracker struct {
	k         *Kernel
	remaining float64
	rate      float64
	since     Time    // when remaining/rate were last reconciled
	done      func()  // invoked exactly once at completion
	pending   EventID // completion event, if one is scheduled
	finished  bool
	consumed  float64
	// completeFn is w.complete bound once at construction; SetRate runs on
	// every scheduler rebalance, and minting a fresh method-value closure
	// there dominated the tracker's allocation profile.
	completeFn func()
}

// NewWorkTracker creates a tracker for total units of work, initially at
// rate zero (stalled). done runs exactly once, at the instant the work
// completes. total must be positive.
func NewWorkTracker(k *Kernel, total float64, done func()) *WorkTracker {
	if total <= 0 {
		panic(fmt.Sprintf("sim: WorkTracker with non-positive work %v", total))
	}
	w := &WorkTracker{k: k, remaining: total, since: k.Now(), done: done}
	w.completeFn = w.complete
	return w
}

// Remaining returns the work left at the current virtual time.
func (w *WorkTracker) Remaining() float64 {
	w.reconcile()
	return w.remaining
}

// Consumed returns the work completed so far at the current virtual time.
func (w *WorkTracker) Consumed() float64 {
	w.reconcile()
	return w.consumed
}

// Finished reports whether the work has completed.
func (w *WorkTracker) Finished() bool { return w.finished }

// Rate returns the current drain rate.
func (w *WorkTracker) Rate() float64 { return w.rate }

// reconcile charges the elapsed interval at the current rate.
func (w *WorkTracker) reconcile() {
	now := w.k.Now()
	if w.finished || now == w.since {
		w.since = now
		return
	}
	drained := w.rate * now.Sub(w.since).Seconds()
	if drained > w.remaining {
		drained = w.remaining
	}
	w.remaining -= drained
	w.consumed += drained
	w.since = now
}

// SetRate changes the drain rate effective immediately. A rate of zero
// stalls the work. Negative rates panic. Work whose completion instant
// lies beyond the last time the virtual clock can hold schedules no
// completion: it drains but never finishes, as if stalled, until a
// later rate brings the instant within reach.
func (w *WorkTracker) SetRate(rate float64) {
	if rate < 0 {
		panic(fmt.Sprintf("sim: WorkTracker rate %v < 0", rate))
	}
	w.reconcile()
	if w.finished {
		return
	}
	w.rate = rate
	w.k.Cancel(w.pending)
	w.pending = EventID{}
	if rate <= 0 {
		return
	}
	// DurationOf(w.remaining / rate), with the range checked before the
	// conversion: a float beyond int64 converts to an arbitrary value.
	eta := math.Round(w.remaining / rate * float64(Second))
	if !(eta < float64(math.MaxInt64-int64(w.k.Now()))) {
		return
	}
	w.pending = w.k.After(Duration(eta), w.completeFn)
}

// Abort cancels the work without running the completion callback.
func (w *WorkTracker) Abort() {
	w.reconcile()
	if w.finished {
		return
	}
	w.finished = true
	w.k.Cancel(w.pending)
	w.pending = EventID{}
}

func (w *WorkTracker) complete() {
	w.reconcile()
	if w.finished {
		return
	}
	// Guard against floating-point residue: by construction the event
	// fires at (or a microsecond after) the analytic completion time.
	w.consumed += w.remaining
	w.remaining = 0
	w.finished = true
	w.pending = EventID{}
	if w.done != nil {
		w.done()
	}
}

// Stat accumulates running mean/stddev/min/max of float64 samples using
// Welford's algorithm. The zero value is ready to use. Stat backs the
// "mean ± stddev over N samples" rows reported throughout the paper's
// evaluation (Figure 1, Table 2).
type Stat struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds a sample into the statistic.
func (s *Stat) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of samples folded in.
func (s *Stat) N() int { return s.n }

// Mean returns the sample mean (zero before any samples).
func (s *Stat) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance.
func (s *Stat) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the unbiased sample standard deviation.
func (s *Stat) Stddev() float64 {
	v := s.Var()
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

// Min returns the smallest sample (zero before any samples).
func (s *Stat) Min() float64 { return s.min }

// Max returns the largest sample (zero before any samples).
func (s *Stat) Max() float64 { return s.max }
