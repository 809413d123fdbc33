package retry

import (
	"testing"

	"vmgrid/internal/sim"
)

func TestAttemptsFloorsAtOne(t *testing.T) {
	for _, n := range []int{-3, 0, 1, 5} {
		got := Policy{MaxAttempts: n}.Attempts()
		want := n
		if want < 1 {
			want = 1
		}
		if got != want {
			t.Errorf("Attempts() with MaxAttempts=%d = %d, want %d", n, got, want)
		}
	}
}

func TestDelayCappedExponential(t *testing.T) {
	p := Policy{Backoff: 10 * sim.Millisecond, MaxBackoff: 45 * sim.Millisecond}
	want := []sim.Duration{
		10 * sim.Millisecond, // after attempt 1
		20 * sim.Millisecond,
		40 * sim.Millisecond,
		45 * sim.Millisecond, // capped
		45 * sim.Millisecond,
	}
	for i, w := range want {
		if got := p.Delay(i+1, 0); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestDelayUsesCallerDefault(t *testing.T) {
	var p Policy
	if got := p.Delay(1, 500*sim.Millisecond); got != 500*sim.Millisecond {
		t.Errorf("Delay(1, 500ms) = %v, want 500ms", got)
	}
	if got := p.Delay(3, 500*sim.Millisecond); got != 2*sim.Second {
		t.Errorf("Delay(3, 500ms) = %v, want 2s", got)
	}
}

func TestDelayUncappedWhenMaxBackoffZero(t *testing.T) {
	p := Policy{Backoff: sim.Second}
	if got := p.Delay(5, 0); got != 16*sim.Second {
		t.Errorf("Delay(5) = %v, want 16s", got)
	}
}

func TestIsZero(t *testing.T) {
	if !(Policy{}).IsZero() {
		t.Error("zero Policy should report IsZero")
	}
	if (Policy{MaxAttempts: 1}).IsZero() {
		t.Error("non-zero Policy should not report IsZero")
	}
}
