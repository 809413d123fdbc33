package sim

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestKernelStartsAtZero(t *testing.T) {
	k := NewKernel(1)
	if k.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", k.Now())
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", k.Pending())
	}
}

func TestKernelDispatchOrder(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.At(30, func() { got = append(got, 3) })
	k.At(10, func() { got = append(got, 1) })
	k.At(20, func() { got = append(got, 2) })
	end := k.Run()
	if end != 30 {
		t.Errorf("Run() end time = %v, want 30", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v", got, want)
		}
	}
}

func TestKernelFIFOAtSameInstant(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events out of FIFO order: %v", got)
		}
	}
}

func TestKernelClockAdvances(t *testing.T) {
	k := NewKernel(1)
	var at1, at2 Time
	k.After(100, func() {
		at1 = k.Now()
		k.After(50, func() { at2 = k.Now() })
	})
	k.Run()
	if at1 != 100 || at2 != 150 {
		t.Fatalf("event times = %v, %v; want 100, 150", at1, at2)
	}
}

func TestKernelSchedulePastPanics(t *testing.T) {
	k := NewKernel(1)
	k.After(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(50, func() {})
	})
	k.Run()
}

func TestKernelCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	id := k.After(10, func() { fired = true })
	k.Cancel(id)
	k.Run()
	if fired {
		t.Error("canceled event fired")
	}
	// Double-cancel and zero-id cancel are no-ops.
	k.Cancel(id)
	k.Cancel(EventID{})
}

func TestKernelCancelOneOfMany(t *testing.T) {
	k := NewKernel(1)
	var got []int
	var ids []EventID
	for i := 0; i < 5; i++ {
		i := i
		ids = append(ids, k.At(Time(10*(i+1)), func() { got = append(got, i) }))
	}
	k.Cancel(ids[2])
	k.Run()
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestKernelCancelStaleIDAfterRecycle(t *testing.T) {
	// Events are recycled through a freelist. A stale EventID — one whose
	// event already fired or was canceled — must never cancel the slot's
	// next occupant, even under heavy recycling.
	k := NewKernel(1)
	fired := false
	idA := k.After(10, func() {})
	k.Cancel(idA)
	k.Run() // drains the canceled event; its slot returns to the freelist
	idB := k.After(10, func() { fired = true })
	k.Cancel(idA) // stale: generation no longer matches
	k.Cancel(idA) // double-cancel of a stale id, still a no-op
	k.Run()
	if !fired {
		t.Error("stale EventID canceled a recycled event")
	}
	_ = idB
}

func TestKernelCancelAfterFire(t *testing.T) {
	k := NewKernel(1)
	var id EventID
	id = k.After(5, func() {
		// Canceling the currently-firing event from inside its own
		// callback must be a no-op (the id is already stale).
		k.Cancel(id)
	})
	k.Run()
	// The slot is recycled; a new event must be schedulable and fire.
	fired := false
	k.After(1, func() { fired = true })
	k.Cancel(id) // stale again
	k.Run()
	if !fired {
		t.Error("cancel-after-fire leaked into a later event")
	}
}

func TestKernelCancelForeignKernelNoOp(t *testing.T) {
	// An EventID minted by one kernel must not touch another kernel's
	// queue, even though recycled events make pointer reuse possible.
	a, b := NewKernel(1), NewKernel(2)
	id := a.After(10, func() {})
	b.After(30, func() {})
	before := b.Pending()
	b.Cancel(id) // id belongs to a, not b
	if b.Pending() != before {
		t.Error("foreign cancel changed Pending")
	}
	a.After(20, func() {})
	a.Cancel(EventID{}) // zero id
	a.Run()
	if a.Dispatched() != 2 {
		t.Errorf("Dispatched = %d, want 2 (foreign cancel must not kill a's event)", a.Dispatched())
	}
}

func TestKernelPendingUnderLazyDelete(t *testing.T) {
	// Cancel takes the event out of the queue at once; Pending counts the
	// events still to fire, and a double cancel must not take out a
	// second one.
	k := NewKernel(1)
	var ids []EventID
	for i := 0; i < 10; i++ {
		ids = append(ids, k.At(Time(10*(i+1)), func() {}))
	}
	if k.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", k.Pending())
	}
	k.Cancel(ids[3])
	k.Cancel(ids[7])
	k.Cancel(ids[3]) // double-cancel
	if k.Pending() != 8 {
		t.Fatalf("Pending = %d after cancels, want 8", k.Pending())
	}
	if err := k.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	// Events at 10,20,30,50 fired (40 canceled); 60..100 remain minus 80.
	if k.Pending() != 4 {
		t.Fatalf("Pending = %d after partial run, want 4", k.Pending())
	}
	k.Run()
	if k.Pending() != 0 || k.Dispatched() != 8 {
		t.Fatalf("Pending = %d, Dispatched = %d; want 0, 8", k.Pending(), k.Dispatched())
	}
}

func TestKernelCancelCompaction(t *testing.T) {
	// Mass cancellation must not leave canceled events in the queue:
	// schedule-and-cancel churn keeps the heap at its live size and
	// reuses one recycled event, and the surviving events still fire in
	// order.
	k := NewKernel(1)
	var keep []int
	for round := 0; round < 1000; round++ {
		id := k.At(Time(round*10+1), nil)
		k.Cancel(id)
	}
	if len(k.queue) != 0 || len(k.free) != 1 {
		t.Fatalf("after churn: %d queued, %d free; want 0 queued, 1 free", len(k.queue), len(k.free))
	}
	for i := 0; i < 5; i++ {
		i := i
		k.At(Time(100_000+i), func() { keep = append(keep, i) })
	}
	if k.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", k.Pending())
	}
	k.Run()
	for i, v := range keep {
		if v != i {
			t.Fatalf("survivors fired out of order: %v", keep)
		}
	}
}

func TestRunUntilAllCanceledStalls(t *testing.T) {
	// A canceled event is not pending work: RunUntil stalls.
	k := NewKernel(1)
	id := k.At(10, func() {})
	k.Cancel(id)
	if err := k.RunUntil(100); !errors.Is(err, ErrStalled) {
		t.Fatalf("RunUntil = %v, want ErrStalled", err)
	}
	if k.Now() != 100 {
		t.Errorf("Now() = %v, want 100", k.Now())
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	k.At(10, func() { fired++ })
	k.At(20, func() { fired++ })
	k.At(30, func() { fired++ })
	if err := k.RunUntil(20); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if fired != 2 {
		t.Errorf("fired = %d, want 2 (deadline inclusive)", fired)
	}
	if k.Now() != 20 {
		t.Errorf("Now() = %v, want 20", k.Now())
	}
	k.Run()
	if fired != 3 {
		t.Errorf("fired = %d after Run, want 3", fired)
	}
}

func TestRunUntilStalled(t *testing.T) {
	k := NewKernel(1)
	k.At(10, func() {})
	err := k.RunUntil(100)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("RunUntil past queue = %v, want ErrStalled", err)
	}
	if k.Now() != 100 {
		t.Errorf("Now() = %v, want clock advanced to deadline 100", k.Now())
	}
}

func TestRunForAdvancesRelative(t *testing.T) {
	k := NewKernel(1)
	k.At(5, func() {})
	if err := k.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	k.At(12, func() {})
	// The queue drains at t=12, so advancing to t=15 reports a stall but
	// still moves the clock to the deadline.
	if err := k.RunFor(10); !errors.Is(err, ErrStalled) {
		t.Fatalf("RunFor = %v, want ErrStalled", err)
	}
	if k.Now() != 15 {
		t.Errorf("Now() = %v, want 15", k.Now())
	}
}

func TestDurationConversions(t *testing.T) {
	tests := []struct {
		seconds float64
		want    Duration
	}{
		{0, 0},
		{1, Second},
		{0.001, Millisecond},
		{1.5, 1500 * Millisecond},
		{0.0000005, 1}, // rounds to nearest microsecond
	}
	for _, tt := range tests {
		if got := DurationOf(tt.seconds); got != tt.want {
			t.Errorf("DurationOf(%v) = %v, want %v", tt.seconds, got, tt.want)
		}
	}
	if got := (2500 * Millisecond).Seconds(); got != 2.5 {
		t.Errorf("Seconds() = %v, want 2.5", got)
	}
	if got := Time(0).Add(Minute); got != Time(60*Second) {
		t.Errorf("Add = %v", got)
	}
	if got := Time(90 * Second).Sub(Time(30 * Second)); got != Minute {
		t.Errorf("Sub = %v", got)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []uint64 {
		k := NewKernel(42)
		var draws []uint64
		var step func()
		step = func() {
			draws = append(draws, k.RNG().Uint64())
			if len(draws) < 100 {
				k.After(Duration(k.RNG().Intn(1000)+1), step)
			}
		}
		k.After(1, step)
		k.Run()
		return draws
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at draw %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: with any batch of non-negative offsets, Run dispatches all
// events in non-decreasing time order and ends at the max offset.
func TestKernelOrderingProperty(t *testing.T) {
	prop := func(offsets []uint16) bool {
		if len(offsets) == 0 {
			return true
		}
		k := NewKernel(7)
		var seen []Time
		var max Time
		for _, off := range offsets {
			at := Time(off)
			if at > max {
				max = at
			}
			k.At(at, func() { seen = append(seen, k.Now()) })
		}
		end := k.Run()
		if end != max || len(seen) != len(offsets) {
			return false
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRunUntilPastDeadlineKeepsClock: a deadline already behind the
// clock dispatches nothing and leaves the clock where it is, whether an
// event is pending or not. Virtual time never runs backwards.
func TestRunUntilPastDeadlineKeepsClock(t *testing.T) {
	k := NewKernel(1)
	k.After(10*Second, func() {})
	if err := k.RunUntil(Time(5 * Second)); err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntil(Time(1 * Second)); err != nil {
		t.Fatal(err)
	}
	if k.Now() != Time(5*Second) {
		t.Errorf("RunUntil(1s) at 5s moved the clock to %v", k.Now())
	}
	if err := k.RunFor(-2 * Second); err != nil {
		t.Fatal(err)
	}
	if k.Now() != Time(5*Second) {
		t.Errorf("RunFor(-2s) at 5s moved the clock to %v", k.Now())
	}
	if k.Pending() != 1 {
		t.Errorf("pending = %d, want the 10s event still queued", k.Pending())
	}
}

// TestKernelYields: at GOMAXPROCS(1), a goroutine made runnable before
// Run gets the processor at the loop's first or second yield, both
// under Run and under RunUntil. Without the yield it would wait for the
// runtime to preempt the loop, and so would a GC cycle's mark worker.
// Gosched does not choose who runs next: one scheduling round in 61
// serves the global run queue first, where the yielding goroutine
// itself waits, and the goroutine then runs at the next yield.
func TestKernelYields(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, until := range []bool{false, true} {
		k := NewKernel(1)
		var ran atomic.Bool
		var seenAt uint64
		var fire func()
		fire = func() {
			if seenAt == 0 && ran.Load() {
				seenAt = k.Dispatched()
			}
			if k.Dispatched() < 4*yieldEvery {
				k.After(1, fire)
			}
		}
		k.After(1, fire)
		go ran.Store(true)
		if until {
			if err := k.RunUntil(Time(8 * yieldEvery)); !errors.Is(err, ErrStalled) {
				t.Fatalf("RunUntil = %v, want ErrStalled", err)
			}
		} else {
			k.Run()
		}
		if seenAt == 0 || seenAt > 2*yieldEvery+1 {
			t.Errorf("RunUntil=%v: goroutine first seen at event %d of %d, want by event %d",
				until, seenAt, k.Dispatched(), 2*yieldEvery+1)
		}
	}
}
