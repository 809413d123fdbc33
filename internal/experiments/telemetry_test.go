package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"vmgrid/internal/core"
	"vmgrid/internal/sim"
	"vmgrid/internal/telemetry"
)

// TestTable2TelemetryDeterministicAcrossWorkers is the export's
// contract: the -telemetry JSON, like the tables, is a pure function of
// the seed — running the same samples on 1 worker and on 8 must produce
// byte-identical bytes.
func TestTable2TelemetryDeterministicAcrossWorkers(t *testing.T) {
	export := func(workers int) string {
		set := telemetry.NewSet()
		cfg := Table2Config{Seed: 7, Samples: 1, Workers: workers, Telemetry: set}
		if _, err := Table2(cfg); err != nil {
			t.Fatal(err)
		}
		if set.Len() != 6 {
			t.Fatalf("telemetry set has %d entries, want 6 (one per cell)", set.Len())
		}
		var buf bytes.Buffer
		if err := set.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	one := export(1)
	eight := export(8)
	if one != eight {
		t.Fatalf("telemetry export differs between 1 and 8 workers:\n1: %d bytes\n8: %d bytes", len(one), len(eight))
	}
	// The scrapes really saw the fabric: node gauges for both nodes and
	// the cell labels must be present.
	for _, want := range []string{
		`"label":"table2/VM-reboot/Persistent/0"`,
		`"label":"table2/VM-restore/Non-persistent LoopbackNFS/0"`,
		"node.load{node=compute}",
		"node.load{node=front}",
	} {
		if !strings.Contains(one, want) {
			t.Errorf("telemetry export missing %q", want)
		}
	}
}

// TestFig1TelemetryDeterministicAcrossWorkers does the same for the
// microbenchmark's scenario collectors, which record the per-task
// slowdown series rather than grid scrapes.
func TestFig1TelemetryDeterministicAcrossWorkers(t *testing.T) {
	export := func(workers int) string {
		set := telemetry.NewSet()
		cfg := Fig1Config{Seed: 3, Samples: 20, Workers: workers, Telemetry: set}
		if _, err := Figure1(cfg); err != nil {
			t.Fatal(err)
		}
		if set.Len() != 12 {
			t.Fatalf("telemetry set has %d entries, want 12 (one per scenario)", set.Len())
		}
		var buf bytes.Buffer
		if err := set.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	one := export(1)
	eight := export(8)
	if one != eight {
		t.Fatalf("fig1 telemetry export differs between 1 and 8 workers:\n1: %d bytes\n8: %d bytes", len(one), len(eight))
	}
	if !strings.Contains(one, `"name":"task.slowdown"`) {
		t.Error("fig1 telemetry export missing the task.slowdown series")
	}
}

// TestRecoveryLeaseAlertsTrackCrashes cross-checks the telemetry
// pipeline's stale-lease alert against the supervisor's lease-expiry
// failure detector: the alert threshold (2×heartbeat) is tighter than
// the detector's TTL (3×heartbeat), so every crash the supervisor
// recovers from must first have tripped the alert — and one crash
// yields exactly one firing (the alert holds until the lease renews
// after failover), so firings never exceed crashes.
func TestRecoveryLeaseAlertsTrackCrashes(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		arm, _, err := recoveryRun(seed, 10*sim.Minute, 60*sim.Second, false)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if arm.Crashes == 0 {
			if arm.LeaseAlerts != 0 {
				t.Errorf("seed %d: %d stale-lease alerts with no crashes", seed, arm.LeaseAlerts)
			}
			continue
		}
		if arm.LeaseAlerts == 0 {
			t.Errorf("seed %d: %d crashes but no stale-lease alert fired", seed, arm.Crashes)
		}
		if arm.LeaseAlerts > arm.Crashes {
			t.Errorf("seed %d: %d stale-lease alerts exceed %d crashes", seed, arm.LeaseAlerts, arm.Crashes)
		}
		return // one crashing schedule is enough
	}
	t.Fatal("no seed in 1..4 produced a crash; fault injection inert")
}

// TestAblationSeriesOnlyWhatIsRead pins what the G, H and I ablations
// store: only the series someone reads. G and H arm the four standard
// rules, so their stores hold exactly the rules' families; I has no
// rules, and stores only the balancer's node.predicted_load and the
// spread's node.load. A source family that came back on unread would
// change these counts.
func TestAblationSeriesOnlyWhatIsRead(t *testing.T) {
	for _, tc := range []struct {
		exp  string
		want map[string]int // series per family, over every run at -samples 1
	}{
		// Eight runs, one session each; no registry is replicated.
		{"ablation-recovery", map[string]int{"lease.age": 8, "session.slowdown": 8, "vfs.retries": 8}},
		// Six runs, one session and one replicated registry each.
		{"ablation-partition", map[string]int{
			"gis.minority_writes": 6, "lease.age": 6, "session.slowdown": 6, "vfs.retries": 6}},
		// Six runs of five nodes; three run the balancer over three
		// compute nodes.
		{"ablation-balance", map[string]int{"node.load": 30, "node.predicted_load": 9}},
	} {
		t.Run(tc.exp, func(t *testing.T) {
			var mu sync.Mutex
			var grids []*core.Grid
			testbedMade = func(g *core.Grid) {
				mu.Lock()
				grids = append(grids, g)
				mu.Unlock()
			}
			defer func() { testbedMade = nil }()
			e, ok := Lookup(tc.exp)
			if !ok {
				t.Fatalf("no experiment %q", tc.exp)
			}
			if _, _, err := e.Run(Ctx{Seed: 1, Samples: 1, Workers: 1}); err != nil {
				t.Fatal(err)
			}
			got := map[string]int{}
			for _, g := range grids {
				db := g.Telemetry().DB()
				for _, key := range db.Keys() {
					got[db.Lookup(key).Name()]++
				}
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("series per family %v, want %v", got, tc.want)
			}
		})
	}
}
