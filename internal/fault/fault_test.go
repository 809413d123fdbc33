package fault

import (
	"testing"

	"vmgrid/internal/sim"
)

func TestTimesDeterministicPerSeed(t *testing.T) {
	k1 := sim.NewKernel(1)
	k2 := sim.NewKernel(99) // different kernel seed must not matter
	a := NewSeeded(k1, 42).Times(10*sim.Minute, 12*sim.Hour)
	b := NewSeeded(k2, 42).Times(10*sim.Minute, 12*sim.Hour)
	if len(a) == 0 {
		t.Fatal("no failures drawn over 12h at 10min MTBF")
	}
	if len(a) != len(b) {
		t.Fatalf("schedules differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := NewSeeded(k1, 43).Times(10*sim.Minute, 12*sim.Hour)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
	// Sanity: a Poisson process at 10 min MTBF over 12 h yields ~72
	// events; accept a wide band.
	if len(a) < 30 || len(a) > 140 {
		t.Errorf("draw count = %d, implausible for MTBF 10min over 12h", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("schedule not sorted")
		}
	}
}

func TestAtPastTimeFiresImmediately(t *testing.T) {
	k := sim.NewKernel(1)
	in := NewSeeded(k, 1)
	fired := false
	in.At(k.Now(), func() { fired = true })
	_ = k.RunUntil(k.Now().Add(sim.Second))
	if !fired {
		t.Error("fault at now never fired")
	}
}
