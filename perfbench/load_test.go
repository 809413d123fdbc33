package main

import (
	"testing"
	"time"
)

// fakeClock is a virtual clock for the open loop: sleeping and serving a
// request both advance it.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

func (c *fakeClock) sleep(d time.Duration, stop <-chan struct{}) bool {
	c.t = c.t.Add(d)
	return true
}

// TestOpenLoopTimesFromDueTime: one 35 ms stall in a 10 ms schedule
// delays the three requests that fell due during it, and their latency
// counts the wait from their due time, not just their own service time.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	l := openLoop{period: 10 * time.Millisecond, now: clk.now, sleep: clk.sleep}
	stop := make(chan struct{})
	service := []time.Duration{35, 1, 1, 1, 1, 1}
	got := l.run(stop, func(i int) error {
		clk.t = clk.t.Add(service[i] * time.Millisecond)
		if i == len(service)-1 {
			close(stop)
		}
		return nil
	})
	want := []struct{ latency, lag time.Duration }{
		{35, 0},  // due 0, sent 0, done 35
		{26, 25}, // due 10, sent 35, done 36
		{17, 16}, // due 20, sent 36, done 37
		{8, 7},   // due 30, sent 37, done 38
		{1, 0},   // due 40: the loop slept until then
		{1, 0},
	}
	if len(got) != len(want) {
		t.Fatalf("%d requests, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.latency != w.latency*time.Millisecond || g.lag != w.lag*time.Millisecond {
			t.Errorf("request %d: latency %v lag %v, want %v and %v", i, g.latency, g.lag,
				w.latency*time.Millisecond, w.lag*time.Millisecond)
		}
		if g.service != g.latency-g.lag {
			t.Errorf("request %d: service %v != latency - lag", i, g.service)
		}
	}
}

// TestOpenLoopStopsWhileWaiting: a closed stop channel ends the loop
// during its wait for the next due time.
func TestOpenLoopStopsWhileWaiting(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	l := openLoop{period: time.Hour, now: time.Now, sleep: sleepOrStop}
	issued := 0
	got := l.run(stop, func(int) error { issued++; return nil })
	if issued != 0 || len(got) != 0 {
		t.Fatalf("issued %d requests after stop", issued)
	}
}

func TestAgingRatio(t *testing.T) {
	ms := make([]float64, 100)
	for i := range ms {
		ms[i] = 1
		if i >= 90 {
			ms[i] = 3
		}
	}
	if got := agingRatio(ms); got != 3 {
		t.Errorf("aging ratio = %v, want 3", got)
	}
	if got := agingRatio(ms[:5]); got != 0 {
		t.Errorf("aging ratio of 5 lifecycles = %v, want 0", got)
	}
}
