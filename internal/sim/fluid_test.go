package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWorkTrackerConstantRate(t *testing.T) {
	k := NewKernel(1)
	var doneAt Time = -1
	w := NewWorkTracker(k, 10, func() { doneAt = k.Now() })
	w.SetRate(2) // 10 units at 2/s -> 5s
	k.Run()
	if doneAt != Time(5*Second) {
		t.Fatalf("completion at %v, want 5s", doneAt)
	}
	if !w.Finished() || w.Remaining() != 0 {
		t.Errorf("Finished=%v Remaining=%v", w.Finished(), w.Remaining())
	}
	if w.Consumed() != 10 {
		t.Errorf("Consumed = %v, want 10", w.Consumed())
	}
}

func TestWorkTrackerRateChange(t *testing.T) {
	k := NewKernel(1)
	var doneAt Time = -1
	w := NewWorkTracker(k, 10, func() { doneAt = k.Now() })
	w.SetRate(1)
	// After 4s, 6 units remain; doubling the rate finishes 3s later.
	k.At(Time(4*Second), func() { w.SetRate(2) })
	k.Run()
	if doneAt != Time(7*Second) {
		t.Fatalf("completion at %v, want 7s", doneAt)
	}
}

func TestWorkTrackerStall(t *testing.T) {
	k := NewKernel(1)
	done := false
	w := NewWorkTracker(k, 10, func() { done = true })
	w.SetRate(1)
	k.At(Time(3*Second), func() { w.SetRate(0) })
	if err := k.RunUntil(Time(100 * Second)); err != nil && !done {
		// Stalling is expected; the queue drains with work outstanding.
	}
	if done {
		t.Fatal("stalled work completed")
	}
	if got := w.Remaining(); math.Abs(got-7) > 1e-9 {
		t.Errorf("Remaining = %v, want 7", got)
	}
	// Resume and finish.
	w.SetRate(7)
	k.Run()
	if !done {
		t.Error("work did not complete after resume")
	}
}

// TestWorkTrackerBeyondClockRange: work whose completion instant lies
// past the last time the clock can hold must not finish at once; it
// waits as a stalled tracker does, and completes on time once a faster
// rate brings the instant within reach.
func TestWorkTrackerBeyondClockRange(t *testing.T) {
	k := NewKernel(1)
	var doneAt Time = -1
	w := NewWorkTracker(k, 1e13, func() { doneAt = k.Now() })
	w.SetRate(1) // 1e13 s: past the clock's ~9.2e12 s range
	if k.Pending() != 0 {
		t.Fatalf("%d events scheduled for a completion the clock cannot hold", k.Pending())
	}
	k.At(Time(10*Second), func() { w.SetRate(1e6) })
	k.Run()
	if doneAt < 0 {
		t.Fatal("work never finished after the rate rose")
	}
	// 10 units drained in the first 10 s; the rest takes (1e13-10)/1e6 s.
	want := Time(10 * Second).Add(DurationOf((1e13 - 10) / 1e6))
	if doneAt != want {
		t.Errorf("completion at %v, want %v", doneAt, want)
	}
}

func TestWorkTrackerAbort(t *testing.T) {
	k := NewKernel(1)
	done := false
	w := NewWorkTracker(k, 10, func() { done = true })
	w.SetRate(1)
	k.At(Time(2*Second), func() { w.Abort() })
	k.Run()
	if done {
		t.Error("aborted work ran completion callback")
	}
	if !w.Finished() {
		t.Error("aborted work not marked finished")
	}
	// SetRate after abort is a no-op.
	w.SetRate(5)
	k.Run()
	if done {
		t.Error("abort then SetRate resurrected the work")
	}
}

func TestWorkTrackerZeroWorkPanics(t *testing.T) {
	k := NewKernel(1)
	defer func() {
		if recover() == nil {
			t.Error("zero work did not panic")
		}
	}()
	NewWorkTracker(k, 0, nil)
}

func TestWorkTrackerNegativeRatePanics(t *testing.T) {
	k := NewKernel(1)
	w := NewWorkTracker(k, 1, nil)
	defer func() {
		if recover() == nil {
			t.Error("negative rate did not panic")
		}
	}()
	w.SetRate(-1)
}

// Property: completion time is invariant under splitting the run into an
// arbitrary prefix at one rate plus remainder at another, when total
// area-under-rate matches.
func TestWorkTrackerPiecewiseProperty(t *testing.T) {
	prop := func(workRaw, r1Raw, r2Raw uint8, switchRaw uint16) bool {
		work := float64(workRaw%50) + 1
		r1 := float64(r1Raw%9) + 1
		r2 := float64(r2Raw%9) + 1
		switchAfter := Duration(switchRaw%5000+1) * Millisecond

		k := NewKernel(3)
		var doneAt Time = -1
		w := NewWorkTracker(k, work, func() { doneAt = k.Now() })
		w.SetRate(r1)
		k.At(Time(switchAfter), func() {
			if !w.Finished() {
				w.SetRate(r2)
			}
		})
		k.Run()
		if doneAt < 0 {
			return false
		}
		// Analytic completion time.
		var want float64
		d1 := switchAfter.Seconds()
		if work <= r1*d1 {
			want = work / r1
		} else {
			want = d1 + (work-r1*d1)/r2
		}
		return math.Abs(doneAt.Seconds()-want) < 2e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStatBasics(t *testing.T) {
	var s Stat
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d, want 8", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	// Population stddev of this classic set is 2; sample stddev is
	// sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.Stddev()-want) > 1e-12 {
		t.Errorf("Stddev = %v, want %v", s.Stddev(), want)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", s.Min(), s.Max())
	}
}

func TestStatSingleSample(t *testing.T) {
	var s Stat
	s.Add(3.5)
	if s.Mean() != 3.5 || s.Stddev() != 0 || s.Min() != 3.5 || s.Max() != 3.5 {
		t.Errorf("single-sample stat wrong: %+v", s)
	}
}

func TestStatMatchesDirectComputation(t *testing.T) {
	prop := func(raw []int8) bool {
		if len(raw) < 2 {
			return true
		}
		var s Stat
		var sum float64
		for _, v := range raw {
			s.Add(float64(v))
			sum += float64(v)
		}
		mean := sum / float64(len(raw))
		var m2 float64
		for _, v := range raw {
			d := float64(v) - mean
			m2 += d * d
		}
		wantVar := m2 / float64(len(raw)-1)
		return math.Abs(s.Mean()-mean) < 1e-9 && math.Abs(s.Var()-wantVar) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
