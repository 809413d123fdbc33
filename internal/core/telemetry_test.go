package core

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"vmgrid/internal/chunk"
	"vmgrid/internal/guest"
	"vmgrid/internal/obs"
	"vmgrid/internal/sim"
	"vmgrid/internal/telemetry"
	"vmgrid/internal/vfs"
)

// keyedScrapes are the grid's scrape sources as they were before they
// recorded through handles: every sample keyed by name and labels, in
// sorted-name order. The handle equivalence test runs them into a
// second collector as the reference.
func keyedScrapes(g *Grid, reg *obs.Registry) []telemetry.Source {
	nodes := func(r *telemetry.Recorder) {
		for _, name := range g.NodeNames() {
			n := g.nodes[name]
			lbl := telemetry.L("node", name)
			crashed := 0.0
			if n.crashed {
				crashed = 1
			}
			r.Record("node.crashed", crashed, lbl)
			if n.crashed {
				continue
			}
			r.Record("node.runnable", float64(n.host.Runnable()), lbl)
			r.Record("node.load", n.host.LoadAverage(), lbl)
			r.Record("node.slots", float64(n.Slots()), lbl)
			if g.monitor != nil && n.forecast != nil {
				r.Record("node.predicted_load", g.monitor.PredictedLoad(name), lbl)
			}
		}
	}
	sessions := func(r *telemetry.Recorder) {
		live := g.LiveSessions()
		sort.Slice(live, func(i, j int) bool { return live[i].name < live[j].name })
		for _, s := range live {
			lbl := telemetry.L("sess", s.name)
			u := s.Usage()
			if u.GuestUserSeconds > 0 {
				r.Record("session.slowdown", u.CPUSeconds/u.GuestUserSeconds, lbl)
			}
			var hits, misses, terrs uint64
			for _, c := range []*vfs.Client{s.dataClient, s.imageClient} {
				if c == nil {
					continue
				}
				hits += c.Hits()
				misses += c.Misses()
				terrs += c.TransportErrors()
			}
			if hits+misses > 0 {
				r.Record("vfs.hit_rate", float64(hits)/float64(hits+misses), lbl)
			}
			r.Record("vfs.transport_errors", float64(terrs), lbl)
		}
	}
	leases := func(r *telemetry.Recorder) {
		for _, sup := range g.supervisors {
			byName := make(map[string]*charge)
			var names []string
			for _, c := range sup.charges {
				byName[c.s.name] = c
				names = append(names, c.s.name)
			}
			sort.Strings(names)
			for _, name := range names {
				c := byName[name]
				if c.lastRenew < 0 {
					continue
				}
				r.Record("lease.age", r.At().Sub(c.lastRenew).Seconds(), telemetry.L("sess", name))
				r.Record("session.epoch", float64(c.s.epoch), telemetry.L("sess", name))
			}
		}
	}
	staging := func(r *telemetry.Recorder) {
		if g.chunks == nil {
			return
		}
		st := g.chunks.Stats()
		r.Record("staging.chunk.hits", float64(st.Hits))
		r.Record("staging.chunk.misses", float64(st.Misses))
		r.Record("staging.bytes_saved", float64(st.BytesSaved))
	}
	registry := func(r *telemetry.Recorder) {
		cl := g.info.Cluster()
		if cl == nil {
			return
		}
		for i := 0; i < cl.Size(); i++ {
			r.Record("gis.replica.lag", cl.Lag(i).Seconds(), telemetry.L("replica", cl.Node(i)))
		}
		r.Record("gis.minority_writes", float64(cl.MinorityWrites()))
	}
	feed := func(r *telemetry.Recorder) {
		snap := reg.Snapshot()
		lbl := telemetry.L("src", "grid")
		for _, p := range snap.Counters {
			r.Record(p.Name, p.Value, lbl)
		}
	}
	return []telemetry.Source{nodes, sessions, leases, registry, staging, feed}
}

// requireSameSeries fails unless two stores hold the same keys, every
// key holds at least one point, and (when points is set) every series
// holds the same points.
func requireSameSeries(t *testing.T, step int, got, want *telemetry.DB, points bool) {
	t.Helper()
	gk, wk := got.Keys(), want.Keys()
	if !reflect.DeepEqual(gk, wk) {
		t.Fatalf("step %d: keys\n%v\nreference\n%v", step, gk, wk)
	}
	for _, key := range wk {
		if !points {
			break
		}
		gs, ws := got.Lookup(key), want.Lookup(key)
		if gs.Len() == 0 {
			t.Fatalf("step %d: series %s exists without a sample", step, key)
		}
		if !reflect.DeepEqual(gs.Points(), ws.Points()) {
			t.Fatalf("step %d: %s points differ from the reference", step, key)
		}
	}
}

// TestHandleScrapesMatchKeyedRecord scrapes a grid through the handle
// sources and, at the same instants, through keyed Record in a second
// collector, across a run where sessions start, come under supervision,
// crash with their node, fail over, and shut down while the node
// reboots, on a grid with a replicated registry and a chunk plane.
// After every scrape the two stores must hold the same keys — so no
// handle creates a series before its first sample — and every tenth
// scrape (well inside the 512-sample rings) the same points.
func TestHandleScrapesMatchKeyedRecord(t *testing.T) {
	g := testbed(t)
	g.EnableChunkedStaging(chunk.Config{})
	if _, err := g.EnableGISReplication([]string{"data", "front", "images"}); err != nil {
		t.Fatal(err)
	}
	g.SetTracer(obs.New(g.Kernel()))
	col, err := g.EnableTelemetry()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := telemetry.NewCollector(g.Kernel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both stores keep every series, as an export does.
	col.WantAll()
	ref.WantAll()
	for _, src := range keyedScrapes(g, g.tracer.Metrics()) {
		ref.AddSource(src)
	}
	if _, err := g.StartMonitor(); err != nil {
		t.Fatal(err)
	}
	sup, err := NewSupervisor(g, SupervisorConfig{StableNode: "data", CheckpointInterval: 30 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}

	created := map[string]*Session{}
	create := func(tag string) {
		t.Helper()
		if _, err := g.CreateSession(baseConfig(), func(s *Session, err error) {
			if err != nil {
				t.Errorf("session %s: %v", tag, err)
				return
			}
			created[tag] = s
		}); err != nil {
			t.Fatal(err)
		}
	}
	var crashed string
	adopted, shutDown := false, false
	k := g.Kernel()
	for step := 0; step < 900; step++ {
		switch {
		case step == 3:
			create("a")
		case step == 60:
			create("b")
		case !adopted && created["a"] != nil && created["a"].State().CanRun():
			if err := sup.Adopt(created["a"], nil); err != nil {
				t.Fatal(err)
			}
			if err := sup.Run(created["a"], guest.MicroTask(600), nil); err != nil {
				t.Fatal(err)
			}
			adopted = true
		case step == 300:
			crashed = created["a"].Node().Name()
			if err := g.CrashNode(crashed); err != nil {
				t.Fatal(err)
			}
		case step == 500:
			if err := g.RebootNode(crashed); err != nil {
				t.Fatal(err)
			}
		case step == 550:
			created["b"].Shutdown()
			shutDown = true
		case step == 600:
			create("c")
		}
		if err := k.RunFor(sim.Second); err != nil && err != sim.ErrStalled {
			t.Fatal(err)
		}
		col.Scrape()
		ref.Scrape()
		requireSameSeries(t, step, col.DB(), ref.DB(), step%10 == 9)
	}
	if !adopted || !shutDown || created["c"] == nil || sup.Stats().Recoveries == 0 {
		t.Fatalf("scenario incomplete: adopted=%v shutdown=%v c=%v recoveries=%d",
			adopted, shutDown, created["c"] != nil, sup.Stats().Recoveries)
	}
	keys := strings.Join(col.DB().Keys(), " ")
	for _, want := range []string{
		"node.crashed{node=" + crashed + "}",
		"node.predicted_load{node=compute1}",
		"lease.age{sess=",
		"session.slowdown{sess=",
		"vfs.transport_errors{sess=",
		"core.sessions.ready{src=grid}",
		"gis.replica.lag{replica=images}",
		"gis.minority_writes",
		"staging.chunk.hits",
		"staging.bytes_saved",
	} {
		if !strings.Contains(keys, want) {
			t.Errorf("no series matching %q: the run did not cover it", want)
		}
	}
}

// TestScrapeNodesZeroAllocs guards the steady-state node scrape: once
// every node's handles are resolved and bound, a scrape — crashed node,
// monitor forecasts and all — allocates nothing. So do the session,
// lease, staging and registry scrapes.
func TestScrapeNodesZeroAllocs(t *testing.T) {
	g := testbed(t)
	g.EnableChunkedStaging(chunk.Config{})
	if _, err := g.EnableGISReplication([]string{"data", "front", "images"}); err != nil {
		t.Fatal(err)
	}
	col, err := g.EnableTelemetry()
	if err != nil {
		t.Fatal(err)
	}
	col.WantAll() // every family scraped and bound
	var rec *telemetry.Recorder
	col.AddSource(func(r *telemetry.Recorder) { rec = r })
	if _, err := g.StartMonitor(); err != nil {
		t.Fatal(err)
	}
	s := startSession(t, g, baseConfig())
	superviseSession(t, g, s, SupervisorConfig{})
	if err := g.CrashNode("compute2"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		_ = g.Kernel().RunFor(sim.Second)
		col.Scrape()
	}
	for name, scrape := range map[string]func(*telemetry.Recorder){
		"scrapeNodes":    g.scrapeNodes,
		"scrapeSessions": g.scrapeSessions,
		"scrapeLeases":   g.scrapeLeases,
		"scrapeStaging":  g.scrapeStaging,
		"scrapeGIS":      g.scrapeGIS,
	} {
		if allocs := testing.AllocsPerRun(100, func() { scrape(rec) }); allocs != 0 {
			t.Errorf("%s allocates %v times per scrape in steady state, want 0", name, allocs)
		}
	}
}

// TestNodeNamesSortedAndCallerOwned: nodes added out of order list in
// name order, and the returned slice is a copy the caller may modify.
func TestNodeNamesSortedAndCallerOwned(t *testing.T) {
	g := NewGrid(1)
	for _, name := range []string{"m", "b", "z", "a", "k"} {
		if _, err := g.AddNode(NodeConfig{Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	names := g.NodeNames()
	if want := []string{"a", "b", "k", "m", "z"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("NodeNames = %v, want %v", names, want)
	}
	names[0] = "mutated"
	if got := g.NodeNames()[0]; got != "a" {
		t.Errorf("caller's edit reached the grid: NodeNames()[0] = %q", got)
	}
}
