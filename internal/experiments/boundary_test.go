package experiments

import (
	"testing"

	"vmgrid/internal/core"
	"vmgrid/internal/obs"
	"vmgrid/internal/sim"
	"vmgrid/internal/telemetry"
	"vmgrid/internal/trace"
	"vmgrid/internal/vmm"
)

// TestTable2SampleEndsAtReady: a Table 2 sample stops its background
// noise where the measurement stops, so its kernel drains at the
// session's ready instant instead of replaying the noise trace until
// the two-hour horizon.
func TestTable2SampleEndsAtReady(t *testing.T) {
	for _, c := range []struct {
		mode   vmm.StartMode
		disk   core.DiskPolicy
		access core.ImageAccess
	}{
		{vmm.ColdBoot, core.Persistent, core.AccessLocal},
		{vmm.WarmRestore, core.NonPersistent, core.AccessLoopback},
	} {
		build := func() *table2Testbed {
			tb, err := newTable2Testbed(3, c.mode, c.disk, c.access, true, true)
			if err != nil {
				t.Fatal(err)
			}
			return tb
		}
		k := build().g.Kernel()
		_ = k.RunUntil(sim.Time(2 * sim.Hour))
		if n := k.Pending(); n != 0 {
			t.Fatalf("%v/%v: %d events still queued at the 2h horizon", c.mode, c.access, n)
		}
		// The queue drains, so Run terminates: it must stop at ready.
		tb := build()
		end := tb.g.Kernel().Run()
		if tb.err != nil || tb.ready == nil {
			t.Fatalf("%v/%v: session not ready (err %v)", c.mode, c.access, tb.err)
		}
		if ready := tb.ready.EventAt("ready"); end != ready {
			t.Errorf("%v/%v: kernel ran to %v, measurement boundary is %v", c.mode, c.access, end, ready)
		}
	}
}

// TestFig1ScenarioEndsAtLastSample: a Figure 1 scenario stops its
// background load with the last sample, so its kernel drains at that
// sample's completion instead of replaying the load until the horizon.
func TestFig1ScenarioEndsAtLastSample(t *testing.T) {
	cfg := Fig1Config{Seed: 2, Samples: 20,
		Trace: &obs.TraceSet{}, Telemetry: &telemetry.Set{}}
	baseline, err := fig1Baseline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	horizon := sim.Time(sim.DurationOf(float64(cfg.Samples)*fig1TaskSeconds*8 + 300))
	for _, p := range [][2]Placement{
		{OnPhysical, OnPhysical}, {OnPhysical, OnVM}, {OnVM, OnPhysical}, {OnVM, OnVM},
	} {
		build := func() *fig1Testbed {
			tb, err := newFig1Testbed(cfg, baseline, 5, trace.Heavy, p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			return tb
		}
		k := build().k
		_ = k.RunUntil(horizon)
		if n := k.Pending(); n != 0 {
			t.Fatalf("load on %v, test on %v: %d events still queued at the horizon", p[0], p[1], n)
		}
		tb := build()
		end := tb.k.Run()
		if tb.stat.N() != cfg.Samples {
			t.Fatalf("load on %v, test on %v: %d/%d samples", p[0], p[1], tb.stat.N(), cfg.Samples)
		}
		// The last sample completes exactly at end: one microsecond
		// earlier, it is still running.
		early := build()
		_ = early.k.RunUntil(end - 1)
		if early.stat.N() != cfg.Samples-1 {
			t.Errorf("load on %v, test on %v: kernel ran to %v, but %d samples were done by %v",
				p[0], p[1], end, early.stat.N(), end-1)
		}
	}
}

// TestFig1LoadVMAfterMeasurementStaysIdle: when the measurement ends
// before a separate load VM has finished restoring, that VM's load
// never starts, so the queue still drains.
func TestFig1LoadVMAfterMeasurementStaysIdle(t *testing.T) {
	cfg := Fig1Config{Seed: 2, Samples: 2}
	baseline, err := fig1Baseline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := newFig1Testbed(cfg, baseline, 5, trace.Heavy, OnVM, OnPhysical)
	if err != nil {
		t.Fatal(err)
	}
	_ = tb.k.RunUntil(sim.Time(sim.Hour))
	if n := tb.k.Pending(); n != 0 {
		t.Fatalf("%d events still queued an hour after the last sample", n)
	}
}
