package sim

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// scheduler is the surface the differential test drives: the real Kernel
// and refKernel, a reference model that keeps pending events in a plain
// slice and dispatches the least (time, schedule order) by linear scan.
// Handles number the scheduled events from 0 in schedule order;
// zeroHandle and foreignHandle stand for the zero EventID and an id
// minted by another kernel, which only the real kernel can express.
type scheduler interface {
	At(at Time, fn func()) int
	After(d Duration, fn func()) int
	Cancel(h int)
	RunUntil(deadline Time) error
	Run() Time
	Now() Time
	Pending() int
	check(where string)
}

const (
	zeroHandle    = -1
	foreignHandle = -2
)

// kernelSched adapts a Kernel to scheduler and checks its heap after
// every step.
type kernelSched struct {
	t       *testing.T
	k       *Kernel
	ids     []EventID
	foreign EventID
}

func newKernelSched(t *testing.T) *kernelSched {
	other := NewKernel(99)
	return &kernelSched{t: t, k: NewKernel(1), foreign: other.At(5, func() {})}
}

func (s *kernelSched) At(at Time, fn func()) int {
	s.ids = append(s.ids, s.k.At(at, fn))
	return len(s.ids) - 1
}

func (s *kernelSched) After(d Duration, fn func()) int {
	s.ids = append(s.ids, s.k.After(d, fn))
	return len(s.ids) - 1
}

func (s *kernelSched) Cancel(h int) {
	switch h {
	case zeroHandle:
		s.k.Cancel(EventID{})
	case foreignHandle:
		s.k.Cancel(s.foreign)
	default:
		s.k.Cancel(s.ids[h])
	}
}

func (s *kernelSched) RunUntil(d Time) error { return s.k.RunUntil(d) }
func (s *kernelSched) Run() Time             { return s.k.Run() }
func (s *kernelSched) Now() Time             { return s.k.Now() }
func (s *kernelSched) Pending() int          { return s.k.Pending() }

// check asserts the heap invariants: each parent orders before its
// children, each queued event's index is its slot, and the queue holds
// exactly the pending events, no canceled one.
func (s *kernelSched) check(where string) {
	s.t.Helper()
	q := s.k.queue
	for i, ev := range q {
		if ev.index != i {
			s.t.Fatalf("%s: event in slot %d has index %d", where, i, ev.index)
		}
		if i > 0 && eventLess(ev, q[(i-1)/2]) {
			s.t.Fatalf("%s: slot %d orders before its parent", where, i)
		}
	}
	if len(q) != s.k.Pending() {
		s.t.Fatalf("%s: queue holds %d events, Pending = %d", where, len(q), s.k.Pending())
	}
}

// refKernel is the reference model.
type refKernel struct {
	now     Time
	evs     []*refEvent
	pending []*refEvent
}

type refEvent struct {
	at       Time
	seq      int
	fn       func()
	finished bool // fired or canceled
}

func (r *refKernel) At(at Time, fn func()) int {
	if at < r.now {
		panic("ref: scheduling in the past")
	}
	ev := &refEvent{at: at, seq: len(r.evs), fn: fn}
	r.evs = append(r.evs, ev)
	r.pending = append(r.pending, ev)
	return ev.seq
}

func (r *refKernel) After(d Duration, fn func()) int { return r.At(r.now.Add(d), fn) }

func (r *refKernel) Cancel(h int) {
	if h < 0 || r.evs[h].finished {
		return
	}
	r.evs[h].finished = true
	r.pending = slices.DeleteFunc(r.pending, func(ev *refEvent) bool { return ev.seq == h })
}

// next returns the slot of the earliest pending event, by (at, seq).
func (r *refKernel) next() int {
	best := 0
	for i, ev := range r.pending {
		if b := r.pending[best]; ev.at < b.at || (ev.at == b.at && ev.seq < b.seq) {
			best = i
		}
	}
	return best
}

func (r *refKernel) dispatch(i int) {
	ev := r.pending[i]
	r.pending = slices.Delete(r.pending, i, i+1)
	ev.finished = true
	r.now = ev.at
	if ev.fn != nil {
		ev.fn()
	}
}

func (r *refKernel) RunUntil(deadline Time) error {
	for {
		if len(r.pending) == 0 {
			if r.now < deadline {
				r.now = deadline
				return ErrStalled
			}
			return nil
		}
		i := r.next()
		if r.pending[i].at > deadline {
			r.now = max(r.now, deadline)
			return nil
		}
		r.dispatch(i)
	}
}

func (r *refKernel) Run() Time {
	for len(r.pending) > 0 {
		r.dispatch(r.next())
	}
	return r.now
}

func (r *refKernel) Now() Time    { return r.now }
func (r *refKernel) Pending() int { return len(r.pending) }
func (r *refKernel) check(string) {}

// runScript drives s through a random script drawn from seed and
// returns the log of what it observed: every dispatch with its handle
// and instant, every RunUntil result and every Pending count. The
// script's draws depend only on seed and on what s reports, so two
// schedulers that agree produce the same log.
func runScript(seed uint64, s scheduler) []string {
	rng := NewRNG(seed)
	var log []string
	var ats []Time // ats[h] is handle h's scheduled instant
	budget := 400  // events callbacks may still schedule
	// schedule adds an event at instant at, through After when after is
	// set, else through At.
	var schedule func(at Time, after bool)
	// pick returns a handle to cancel: usually one already issued
	// (pending, fired or canceled), sometimes the zero or a foreign id.
	pick := func() int {
		switch n := rng.Intn(10); {
		case n == 0 || len(ats) == 0:
			return zeroHandle
		case n == 1:
			return foreignHandle
		default:
			return rng.Intn(len(ats))
		}
	}
	// rescheduleSame cancels h and schedules a new event at h's instant,
	// or at now if that has passed: the WorkTracker rate-change pattern.
	rescheduleSame := func(h int) {
		s.Cancel(h)
		if h >= 0 {
			schedule(max(ats[h], s.Now()), false)
		}
	}
	schedule = func(at Time, after bool) {
		var h int
		fn := func() {
			log = append(log, fmt.Sprintf("fire %d at %d", h, s.Now()))
			s.check(fmt.Sprintf("fire %d", h))
			if budget <= 0 {
				return
			}
			for range rng.Intn(3) {
				switch rng.Intn(5) {
				case 0:
					s.Cancel(h) // its own id, already fired
				case 1:
					s.Cancel(pick())
				case 2:
					rescheduleSame(pick())
				default:
					budget--
					schedule(s.Now().Add(Duration(rng.Intn(8))), rng.Intn(2) == 0)
				}
				s.check(fmt.Sprintf("in %d", h))
			}
		}
		if after {
			h = s.After(at.Sub(s.Now()), fn)
		} else {
			h = s.At(at, fn)
		}
		ats = append(ats, at)
	}
	for step := range 300 {
		switch op := rng.Intn(20); {
		case op < 7:
			schedule(s.Now().Add(Duration(rng.Intn(20))), rng.Intn(2) == 0)
		case op < 9:
			schedule(s.Now(), false)
		case op < 13:
			s.Cancel(pick())
		case op < 15:
			rescheduleSame(pick())
		case op < 19:
			err := s.RunUntil(s.Now().Add(Duration(rng.Intn(30))))
			log = append(log, fmt.Sprintf("rununtil -> %v, now %d", errors.Is(err, ErrStalled), s.Now()))
		default:
			log = append(log, fmt.Sprintf("run -> %d", s.Run()))
		}
		s.check(fmt.Sprintf("step %d", step))
		log = append(log, fmt.Sprintf("pending %d", s.Pending()))
	}
	log = append(log, fmt.Sprintf("run -> %d", s.Run()))
	s.check("end")
	return log
}

// TestKernelMatchesReference runs random scripts of At/After, Cancel,
// RunUntil and Run against the Kernel and the reference model. Dispatch
// order, clock, stall results and Pending must agree at every step, and
// the Kernel's heap must hold exactly its pending events.
func TestKernelMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		ks := newKernelSched(t)
		got := runScript(seed, ks)
		want := runScript(seed, &refKernel{})
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("seed %d: logs diverge at entry %d:\nkernel: %s\nref:    %s",
				seed, i, entry(got, i), entry(want, i))
		}
		if ks.k.Dispatched() == 0 {
			t.Fatalf("seed %d: script dispatched nothing", seed)
		}
	}
}

func firstDiff(a, b []string) int {
	for i := range max(len(a), len(b)) {
		if entry(a, i) != entry(b, i) {
			return i
		}
	}
	return -1
}

func entry(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "<end>"
}
