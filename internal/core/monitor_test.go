package core

import (
	"testing"

	"vmgrid/internal/gis"
	"vmgrid/internal/rps"
	"vmgrid/internal/sim"
	"vmgrid/internal/trace"

	"vmgrid/internal/hostos"
)

func TestMonitorRefreshesPredictedLoad(t *testing.T) {
	g := testbed(t)
	m, err := g.StartMonitor()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	// Put persistent load on compute1 so its forecast rises.
	bgTrace := &trace.Trace{Step: sim.Second, Loads: []float64{2.0}}
	lp := hostos.NewLoadProcess(g.Node("compute1").Host(), "bg", bgTrace)
	lp.Start()

	_ = g.Kernel().RunUntil(sim.Time(2 * sim.Minute))
	if m.Ticks() < 100 {
		t.Fatalf("monitor ticked %d times in 2 minutes", m.Ticks())
	}

	loaded := m.PredictedLoad("compute1")
	idle := m.PredictedLoad("compute2")
	if loaded <= idle {
		t.Errorf("predicted load: loaded node %v <= idle node %v", loaded, idle)
	}

	// The information service reflects the forecasts...
	e1, err := g.Info().Lookup(gis.KindVMFuture, "compute1")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := g.Info().Lookup(gis.KindVMFuture, "compute2")
	if err != nil {
		t.Fatal(err)
	}
	if e1.Float(gis.AttrLoad) <= e2.Float(gis.AttrLoad) {
		t.Errorf("advertised load: %v <= %v", e1.Float(gis.AttrLoad), e2.Float(gis.AttrLoad))
	}

	// ...so a new session avoids the loaded node.
	s := startSession(t, g, baseConfig())
	if s.Node().Name() != "compute2" {
		t.Errorf("session placed on %s despite load forecast", s.Node().Name())
	}
}

func TestMonitorStopHaltsTicks(t *testing.T) {
	g := testbed(t)
	m, err := g.StartMonitor()
	if err != nil {
		t.Fatal(err)
	}
	_ = g.Kernel().RunUntil(sim.Time(5 * sim.Second))
	m.Stop()
	ticks := m.Ticks()
	_ = g.Kernel().RunUntil(sim.Time(30 * sim.Second))
	if m.Ticks() != ticks {
		t.Error("monitor kept ticking after Stop")
	}
	m.Stop() // idempotent
}

func TestMonitorQueryLanguageIntegration(t *testing.T) {
	// The monitor's records are queryable through the URGIS-style
	// language — the paper's resource-discovery flow end to end.
	g := testbed(t)
	m, err := g.StartMonitor()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	_ = g.Kernel().RunUntil(sim.Time(10 * sim.Second))

	rows, err := g.Info().QueryString(
		`select vm-future where slots >= 1 and site == "nwu" order by load limit 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Entries[0].Name == "" {
		t.Error("empty winner")
	}
}

// freshForecast is PredictedLoad without the memo: a new AR(8) trained
// on the node's whole current history.
func freshForecast(t *testing.T, m *Monitor, node string) float64 {
	t.Helper()
	series := m.grid.nodes[node].forecast.sensor.Series()
	if series.Len() < 32 {
		return series.Last()
	}
	ar, err := rps.NewAR(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ar.Train(series.Values()); err != nil {
		t.Fatal(err)
	}
	return max(ar.Predict(), 0)
}

// TestPredictedLoadMemoMatchesFreshModel: the memoized forecast equals
// a freshly trained model's both before and after each new sensor
// sample, from the first sample, across the 32-sample training
// threshold, and after the 512-sample ring wraps.
func TestPredictedLoadMemoMatchesFreshModel(t *testing.T) {
	g := testbed(t)
	m, err := g.StartMonitor()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	bg := &trace.Trace{Step: 7 * sim.Second, Loads: []float64{2.0, 0.3, 1.1, 3.0, 0.0, 1.7}}
	hostos.NewLoadProcess(g.Node("compute1").Host(), "bg", bg).Start()

	for step := 0; step < 600; step++ {
		if step%5 == 0 || step > 520 {
			for _, node := range []string{"compute1", "compute2"} {
				want := freshForecast(t, m, node)
				for i := 0; i < 2; i++ { // second read hits the memo
					if got := m.PredictedLoad(node); got != want {
						t.Fatalf("step %d %s read %d: PredictedLoad = %v, fresh model = %v", step, node, i, got, want)
					}
				}
			}
		}
		if err := g.Kernel().RunFor(sim.Second); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.grid.nodes["compute1"].forecast.sensor.Series().Total(); n <= 512 {
		t.Fatalf("ring never wrapped: %d samples", n)
	}
}

var predictedSink float64

// BenchmarkPredictedLoad measures one sensor interval's forecast reads
// on a node with a full history: a new sample arrives, then three
// readers (VM-future refresh, telemetry scrape, balancer) ask for the
// forecast.
func BenchmarkPredictedLoad(b *testing.B) {
	g := testbed(b)
	m, err := g.StartMonitor()
	if err != nil {
		b.Fatal(err)
	}
	defer m.Stop()
	if err := g.Kernel().RunFor(600 * sim.Second); err != nil {
		b.Fatal(err)
	}
	series := m.grid.nodes["compute1"].forecast.sensor.Series()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series.Add(float64(i%7) / 3)
		for r := 0; r < 3; r++ {
			predictedSink = m.PredictedLoad("compute1")
		}
	}
}

// crashUnderMonitor starts the monitor, crashes compute1 after a few
// ticks, and lets ten more ticks run.
func crashUnderMonitor(t *testing.T) (*Grid, *Monitor) {
	t.Helper()
	g := testbed(t)
	m, err := g.StartMonitor()
	if err != nil {
		t.Fatal(err)
	}
	_ = g.Kernel().RunUntil(sim.Time(5 * sim.Second))
	if err := g.CrashNode("compute1"); err != nil {
		t.Fatal(err)
	}
	_ = g.Kernel().RunUntil(sim.Time(15 * sim.Second))
	return g, m
}

// TestMonitorKeepsCrashedNodeUnadvertised: monitor ticks must not bring
// a crashed node's VM future back.
func TestMonitorKeepsCrashedNodeUnadvertised(t *testing.T) {
	g, m := crashUnderMonitor(t)
	defer m.Stop()
	if e, err := g.Info().Lookup(gis.KindVMFuture, "compute1"); err == nil {
		t.Errorf("crashed compute1 re-advertised by the monitor: %v", e.Attrs)
	}
	if _, err := g.Info().Lookup(gis.KindVMFuture, "compute2"); err != nil {
		t.Errorf("live compute2 lost its VM future: %v", err)
	}
}

// TestSessionAfterCrashUnderMonitorLandsOnLiveNode: with the monitor
// running, a session created after a crash is placed on a live node.
func TestSessionAfterCrashUnderMonitorLandsOnLiveNode(t *testing.T) {
	g, m := crashUnderMonitor(t)
	defer m.Stop()
	s := startSession(t, g, baseConfig())
	if got := s.Node().Name(); got != "compute2" {
		t.Errorf("session placed on %s, want live compute2", got)
	}
}

// TestSlotChangeKeepsForecastBetweenTicks: a slot reservation between
// monitor ticks re-advertises the node, and the record keeps the
// forecast as its load instead of switching to another signal.
func TestSlotChangeKeepsForecastBetweenTicks(t *testing.T) {
	g := testbed(t)
	m, err := g.StartMonitor()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	n := g.Node("compute1")
	bg := &trace.Trace{Step: sim.Second, Loads: []float64{2.0}}
	hostos.NewLoadProcess(n.Host(), "bg", bg).Start()
	// Half-way between two ticks.
	_ = g.Kernel().RunUntil(sim.Time(2*sim.Minute + sim.Second/2))

	want := m.PredictedLoad("compute1")
	if want == float64(n.Host().Runnable()) || want == n.Host().LoadAverage() {
		t.Fatalf("forecast %v matches a raw signal (runnable %d, load %v); pick another state",
			want, n.Host().Runnable(), n.Host().LoadAverage())
	}
	advertised := func(step string) {
		t.Helper()
		e, err := g.Info().Lookup(gis.KindVMFuture, "compute1")
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Float(gis.AttrLoad); got != want {
			t.Errorf("%s: advertised load %v, want forecast %v", step, got, want)
		}
	}
	in := &incarnation{node: n}
	in.takeSlot()
	advertised("take")
	in.retire()
	advertised("retire")
}

// TestAdvertiseAllocs guards the per-second VM-future refresh of a
// monitored node against the standalone registry: the record's map is
// updated in place and the node's constant attributes are boxed once,
// so a refresh allocates nothing at load 0 and at most the load's box
// otherwise.
func TestAdvertiseAllocs(t *testing.T) {
	g := testbed(t)
	m, err := g.StartMonitor()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	n := g.Node("compute1")
	if load := m.PredictedLoad("compute1"); load != 0 {
		t.Fatalf("idle node forecasts load %v, want 0", load)
	}
	if got := testing.AllocsPerRun(100, n.advertise); got != 0 {
		t.Errorf("advertise at load 0 allocates %v times, want 0", got)
	}

	bg := &trace.Trace{Step: sim.Second, Loads: []float64{2.0}}
	hostos.NewLoadProcess(n.Host(), "bg", bg).Start()
	_ = g.Kernel().RunUntil(sim.Time(2 * sim.Minute))
	if load := m.PredictedLoad("compute1"); load == 0 {
		t.Fatal("loaded node forecasts load 0")
	}
	if got := testing.AllocsPerRun(100, n.advertise); got > 1 {
		t.Errorf("advertise under load allocates %v times, want at most the load's box", got)
	}
}
