// Package sim provides the discrete-event simulation kernel on which the
// vmgrid hardware, operating-system, network, and middleware models run.
//
// All simulated components share a single Kernel, which owns the virtual
// clock and a priority queue of pending events. Virtual time is expressed
// as Time (microseconds); it advances only when the kernel dispatches the
// next event, so simulations are deterministic and run as fast as the host
// machine allows regardless of how many simulated seconds they cover.
package sim

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"
)

// Time is a point in virtual time, in microseconds since the start of the
// simulation. It is deliberately not time.Time: simulated experiments must
// never consult the wall clock.
type Time int64

// Duration is a span of virtual time, in microseconds.
type Duration int64

// Common durations, mirroring the time package for readability.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
	Minute      Duration = 60 * Second
	Hour        Duration = 60 * Minute
)

// Seconds converts d to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Std converts d to a standard library time.Duration for display purposes.
func (d Duration) Std() time.Duration { return time.Duration(d) * time.Microsecond }

// String renders the duration using the standard library notation.
func (d Duration) String() string { return d.Std().String() }

// DurationOf converts floating-point seconds to a Duration, rounding to the
// nearest microsecond.
func DurationOf(seconds float64) Duration {
	return Duration(math.Round(seconds * float64(Second)))
}

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from earlier to t.
func (t Time) Sub(earlier Time) Duration { return Duration(t - earlier) }

// Seconds converts t to floating-point seconds since simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the time as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("t=%.6fs", t.Seconds()) }

// ErrStalled is returned by RunUntil when the event queue drains before the
// requested time is reached. Callers that expect an open-ended simulation
// can match it with errors.Is.
var ErrStalled = errors.New("sim: event queue drained before deadline")

// event is a scheduled callback. seq breaks ties between events scheduled
// for the same instant so dispatch order is deterministic (FIFO per instant).
// Events are recycled through the kernel's freelist; gen distinguishes the
// current occupant from stale EventIDs that refer to a previous use. index
// is the event's slot in the heap, -1 when it is not queued.
type event struct {
	at    Time
	seq   uint64
	fn    func()
	gen   uint64
	owner *Kernel
	index int
}

// EventID identifies a scheduled event so it can be canceled. The zero
// EventID is invalid. An EventID stays safe to cancel after the event has
// fired or been recycled: the generation stamp no longer matches, so the
// cancel is a no-op rather than a hit on an unrelated event.
type EventID struct {
	ev  *event
	gen uint64
}

// Kernel is the discrete-event simulation core: a virtual clock plus an
// ordered queue of pending events. A Kernel is not safe for concurrent use;
// a simulation is a single-threaded deterministic program by design.
// Callers that want parallelism run one Kernel per goroutine (see
// internal/experiments' sample runner) — nothing here is shared.
type Kernel struct {
	now        Time
	queue      []*event // binary min-heap on (at, seq); pending events only
	seq        uint64
	rng        *RNG
	dispatched uint64
	free       []*event // recycled events; single-threaded, so no sync.Pool
}

// initialQueueCap pre-sizes the event heap. The heap holds only pending
// events, so its length is the number in flight: at seed 1 at most 3 in a
// Figure 1, Table 1 or Table 2 sample and at most 43 in the grid
// ablations. A capacity that covers them keeps append from growing the
// backing array in the hot loop.
const initialQueueCap = 128

// NewKernel returns a kernel with the clock at zero and randomness seeded
// from seed. The same seed always produces the same simulation.
func NewKernel(seed uint64) *Kernel {
	return &Kernel{
		rng:   NewRNG(seed),
		queue: make([]*event, 0, initialQueueCap),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// RNG returns the kernel's deterministic random number generator.
func (k *Kernel) RNG() *RNG { return k.rng }

// Pending returns the number of events waiting to be dispatched.
func (k *Kernel) Pending() int { return len(k.queue) }

// Dispatched returns the total number of events executed so far.
func (k *Kernel) Dispatched() uint64 { return k.dispatched }

// alloc takes an event from the freelist, or makes one. The returned event
// keeps the generation it was retired with; At stamps the EventID with it.
func (k *Kernel) alloc() *event {
	if n := len(k.free); n > 0 {
		ev := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return ev
	}
	return &event{owner: k, index: -1}
}

// recycle retires an event (fired or canceled) to the freelist. Bumping
// gen invalidates every outstanding EventID for it, and dropping fn
// releases the closure for GC.
func (k *Kernel) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	k.free = append(k.free, ev)
}

// eventLess orders the heap by time, then schedule order.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// up restores the heap property from node i toward the root. It and down
// keep each moved event's index equal to its slot.
func (k *Kernel) up(i int) {
	q := k.queue
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := q[parent]
		if !eventLess(ev, p) {
			break
		}
		q[i] = p
		p.index = i
		i = parent
	}
	q[i] = ev
	ev.index = i
}

// down restores the heap property from node i toward the leaves.
func (k *Kernel) down(i int) {
	q := k.queue
	n := len(q)
	ev := q[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && eventLess(q[r], q[child]) {
			child = r
		}
		c := q[child]
		if !eventLess(c, ev) {
			break
		}
		q[i] = c
		c.index = i
		i = child
	}
	q[i] = ev
	ev.index = i
}

// remove takes the event in slot i out of the heap: the last slot's event
// moves into slot i and sifts whichever way restores the heap property.
func (k *Kernel) remove(i int) *event {
	q := k.queue
	n := len(q) - 1
	ev := q[i]
	ev.index = -1
	last := q[n]
	q[n] = nil
	k.queue = q[:n]
	if i < n {
		q[i] = last
		if i > 0 && eventLess(last, q[(i-1)/2]) {
			k.up(i)
		} else {
			k.down(i)
		}
	}
	return ev
}

// At schedules fn to run at the absolute virtual time at. Scheduling in the
// past (before Now) panics: it is always a simulation bug, never a
// recoverable condition.
func (k *Kernel) At(at Time, fn func()) EventID {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v, before now %v", at, k.now))
	}
	ev := k.alloc()
	ev.at = at
	ev.seq = k.seq
	ev.fn = fn
	k.seq++
	k.queue = append(k.queue, ev)
	k.up(len(k.queue) - 1)
	return EventID{ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current time. Negative d panics.
func (k *Kernel) After(d Duration, fn func()) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: scheduling event %v in the past", d))
	}
	return k.At(k.now.Add(d), fn)
}

// Cancel prevents a scheduled event from firing. Canceling an event that
// already fired, an invalid id, a stale id whose event was recycled, or an
// id minted by a different kernel is a no-op, so callers can cancel
// unconditionally during teardown. Cancel removes the event from the heap
// at once, in O(log n), and recycles it, so the heap holds only pending
// events and a cancel-then-reschedule reuses the same event.
func (k *Kernel) Cancel(id EventID) {
	ev := id.ev
	if ev == nil || ev.owner != k || ev.gen != id.gen || ev.index < 0 {
		return
	}
	k.recycle(k.remove(ev.index))
}

// yieldEvery is how many dispatched events pass between the dispatch
// loop's calls to runtime.Gosched. The loop otherwise never reaches a
// scheduling point, so at GOMAXPROCS(1) a GC cycle's fractional mark
// worker cannot run until the runtime preempts the loop, about 10 ms
// later, and write barriers stay on the whole time: every heap
// operation pays them for a mark phase that needs a fraction of a
// millisecond of work. Yielding this often ends a pending mark phase
// within microseconds, at a cost of one Gosched per 1024 events. It
// cannot change event order: a kernel runs on one goroutine, and the
// yield only lets other goroutines run. A power of two, so the test is
// a mask.
const yieldEvery = 1024

// step dispatches the earliest pending event, advancing the clock to its
// timestamp, and yields the goroutine every yieldEvery events. It
// reports whether an event was dispatched.
func (k *Kernel) step() bool {
	if len(k.queue) == 0 {
		return false
	}
	ev := k.remove(0)
	k.now = ev.at
	k.dispatched++
	fn := ev.fn
	// Recycle before running fn: a cancel of this id during fn sees a
	// stale generation, and fn is free to schedule into the slot.
	k.recycle(ev)
	if k.dispatched%yieldEvery == 0 {
		runtime.Gosched()
	}
	if fn != nil {
		fn()
	}
	return true
}

// Run dispatches events until the queue is empty and returns the final
// virtual time.
func (k *Kernel) Run() Time {
	for k.step() {
	}
	return k.now
}

// RunUntil dispatches events until the virtual clock reaches deadline.
// Events scheduled exactly at the deadline are dispatched. If the queue
// drains early the clock still advances to deadline and ErrStalled is
// returned. A deadline already behind the clock dispatches nothing and
// leaves the clock alone: virtual time never runs backwards.
func (k *Kernel) RunUntil(deadline Time) error {
	for {
		if len(k.queue) == 0 {
			if k.now < deadline {
				k.now = deadline
				return ErrStalled
			}
			return nil
		}
		if k.queue[0].at > deadline {
			k.now = max(k.now, deadline)
			return nil
		}
		k.step()
	}
}

// RunFor advances the simulation by d virtual time; a negative d is a
// no-op. See RunUntil.
func (k *Kernel) RunFor(d Duration) error { return k.RunUntil(k.now.Add(d)) }
