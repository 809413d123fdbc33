package experiments

import (
	"reflect"
	"testing"

	"vmgrid/internal/core"
	"vmgrid/internal/sim"
)

// TestAblationBalanceImprovesTail is the ablation's headline claim: on
// the skewed burst workload, turning the balancer on strictly improves
// the p99 slowdown for the pack policy — the policy that manufactures
// the worst hotspot — and never does so by parking sessions without
// migrating (the improvement must come with actual migrations).
func TestAblationBalanceImprovesTail(t *testing.T) {
	if testing.Short() {
		t.Skip("full balance sweep in -short mode")
	}
	rows, err := AblationBalance(3, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	byArm := make(map[string]map[bool]BalanceRow)
	for _, r := range rows {
		if byArm[r.Policy] == nil {
			byArm[r.Policy] = make(map[bool]BalanceRow)
		}
		byArm[r.Policy][r.Balancer] = r
	}
	pack := byArm["pack"]
	off, on := pack[false], pack[true]
	if !(on.P99 < off.P99) {
		t.Errorf("pack: balancer-on p99 %.3f not below balancer-off %.3f", on.P99, off.P99)
	}
	if on.Migrations == 0 {
		t.Error("pack: balancer-on arm reported zero migrations")
	}
	if !(on.SpreadLoad < off.SpreadLoad) {
		t.Errorf("pack: balancer-on spread %.3f not below balancer-off %.3f",
			on.SpreadLoad, off.SpreadLoad)
	}
	for policy, arms := range byArm {
		if arms[false].Migrations != 0 {
			t.Errorf("%s: balancer-off arm migrated %.0f times", policy, arms[false].Migrations)
		}
		for _, r := range arms {
			if r.P50 < 1 || r.P99 < r.P50 {
				t.Errorf("%s balancer=%v: slowdown percentiles p50=%.3f p99=%.3f malformed",
					policy, r.Balancer, r.P50, r.P99)
			}
		}
	}
}

// TestAblationBalanceParallelInvariant: the sweep's numbers must be
// identical at any worker count — the determinism contract every table
// in the repo honors.
func TestAblationBalanceParallelInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full balance sweep in -short mode")
	}
	w1, err := AblationBalance(7, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	w8, err := AblationBalance(7, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w1, w8) {
		t.Errorf("rows differ between workers=1 and workers=8:\n%+v\n%+v", w1, w8)
	}
}

// TestForecastReadsDoNotPerturbBalance: reading a forecast is a pure
// read. A reader that asks the monitor for every compute node's
// PredictedLoad half a second after each tick leaves Ablation I's table
// and its balancer migration count byte-identical to a run without it.
func TestForecastReadsDoNotPerturbBalance(t *testing.T) {
	run := func() (string, float64) {
		t.Helper()
		rows, err := AblationBalance(1, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		var migrations float64
		for _, r := range rows {
			migrations += r.Migrations
		}
		return BalanceTable(rows).String(), migrations
	}
	plain, plainMoves := run()

	reads := 0
	testbedMade = func(g *core.Grid) {
		k := g.Kernel()
		var poll func()
		poll = func() {
			if mon := g.Monitor(); mon != nil {
				for _, node := range []string{"c1", "c2", "c3"} {
					_ = mon.PredictedLoad(node)
					reads++
				}
			}
			k.After(sim.Second, poll)
		}
		k.After(sim.Second/2, poll)
	}
	defer func() { testbedMade = nil }()
	read, readMoves := run()
	if reads == 0 {
		t.Fatal("the reader never read a forecast")
	}
	if read != plain || readMoves != plainMoves {
		t.Fatalf("forecast reads changed Ablation I (%v migrations, want %v):\nplain\n%s\nread\n%s",
			readMoves, plainMoves, plain, read)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	vs := []float64{4, 1, 3, 2}
	if q := quantile(vs, 0.5); q != 2 {
		t.Errorf("p50 = %v, want 2", q)
	}
	if q := quantile(vs, 0.99); q != 4 {
		t.Errorf("p99 = %v, want 4", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
	if !reflect.DeepEqual(vs, []float64{4, 1, 3, 2}) {
		t.Error("quantile mutated its input")
	}
}
