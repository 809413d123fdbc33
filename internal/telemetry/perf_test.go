package telemetry

import (
	"testing"

	"vmgrid/internal/sim"
)

// TestRecordExistingSeriesZeroAllocs: the scrape hot path — recording a
// sample to an already-interned series — allocates nothing, for both
// the unlabeled and the labeled (canonical-key scratch render + zero-copy
// lookup) paths.
func TestRecordExistingSeriesZeroAllocs(t *testing.T) {
	db, err := NewDB(64)
	if err != nil {
		t.Fatal(err)
	}
	labels := []Label{L("node", "c1"), L("session", "s9")}
	db.Record(0, "node.load", nil, 1)
	db.Record(0, "node.load", labels, 1)

	at := sim.Time(1)
	unlabeled := testing.AllocsPerRun(200, func() {
		db.Record(at, "node.load", nil, 2.5)
		at++
	})
	if unlabeled != 0 {
		t.Errorf("unlabeled Record allocates %.1f objects/op, want 0", unlabeled)
	}
	labeled := testing.AllocsPerRun(200, func() {
		db.Record(at, "node.load", labels, 2.5)
		at++
	})
	if labeled != 0 {
		t.Errorf("labeled Record on an existing series allocates %.1f objects/op, want 0", labeled)
	}
	if db.Len() != 2 {
		t.Fatalf("series count = %d, want 2 (no accidental re-interning)", db.Len())
	}
}

// TestRecordUnsortedLabelsStillCanonical: the zero-alloc fast path must
// not change keying — unsorted label sets land in the same series as
// their sorted spelling.
func TestRecordUnsortedLabelsStillCanonical(t *testing.T) {
	db, err := NewDB(8)
	if err != nil {
		t.Fatal(err)
	}
	db.Record(0, "m", []Label{L("b", "2"), L("a", "1")}, 1)
	db.Record(1, "m", []Label{L("a", "1"), L("b", "2")}, 2)
	if db.Len() != 1 {
		t.Fatalf("series count = %d, want 1", db.Len())
	}
	s := db.Lookup("m{a=1,b=2}")
	if s == nil {
		t.Fatal("canonical key not found")
	}
	if s.Len() != 2 {
		t.Errorf("samples = %d, want 2", s.Len())
	}
}

// BenchmarkTelemetryObserve measures the labeled observe path on an
// existing series: sort check, scratch key render, zero-copy lookup,
// ring append.
func BenchmarkTelemetryObserve(b *testing.B) {
	db, err := NewDB(512)
	if err != nil {
		b.Fatal(err)
	}
	labels := []Label{L("node", "c1"), L("session", "s9")}
	db.Record(0, "node.load", labels, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Record(sim.Time(i), "node.load", labels, float64(i))
	}
}

// TestRecorderRecordZeroAllocs: a source's labeled Record to an
// existing series allocates nothing — series copy their labels on
// creation, so the variadic label slice stays on the caller's stack.
func TestRecorderRecordZeroAllocs(t *testing.T) {
	db, err := NewDB(64)
	if err != nil {
		t.Fatal(err)
	}
	r := &Recorder{db: db}
	r.Record("node.load", 1, L("node", "c1"), L("zone", "a"))
	allocs := testing.AllocsPerRun(200, func() {
		r.at++
		r.Record("node.load", 2.5, L("node", "c1"), L("zone", "a"))
	})
	if allocs != 0 {
		t.Errorf("labeled Recorder.Record allocates %.1f objects/op, want 0", allocs)
	}
}

// TestEvalZeroAllocs: evaluating mean, rate, and last rules over
// existing series — firing or quiet — allocates nothing.
func TestEvalZeroAllocs(t *testing.T) {
	k := sim.NewKernel(1)
	c := newTestCollector(t, k, Config{History: 64})
	for _, r := range []struct{ name, expr string }{
		{"slow", "mean(session.slowdown, 30s) > 1.10 for 30s"},
		{"storm", "rate(vfs.retries, 10s) > 5"},
		{"stale", "last(lease.age) > 4"},
	} {
		if err := c.AddRule(r.name, r.expr); err != nil {
			t.Fatal(err)
		}
	}
	now := sim.Time(0)
	record := func() {
		for _, sess := range []string{"a", "b", "c"} {
			lbl := []Label{L("sess", sess)}
			c.db.Record(now, "session.slowdown", lbl, 1.5)
			c.db.Record(now, "vfs.retries", lbl, float64(now)/1e5)
			c.db.Record(now, "lease.age", lbl, 1)
		}
	}
	for i := 0; i < 40; i++ {
		record()
		c.engine.eval(now)
		now = now.Add(sim.Second)
	}
	if len(c.Active()) == 0 {
		t.Fatal("no rule fired; the guard would only cover the quiet path")
	}
	allocs := testing.AllocsPerRun(100, func() { c.engine.eval(now) })
	if allocs != 0 {
		t.Errorf("eval allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkCollectorScrape measures one steady-state scrape round of a
// grid-sized store — 8 nodes, 16 sessions, 3 GIS replicas, full rings —
// with the four standard alert rules armed.
func BenchmarkCollectorScrape(b *testing.B) {
	k := sim.NewKernel(1)
	c, err := NewCollector(k, Config{})
	if err != nil {
		b.Fatal(err)
	}
	nodes := []string{"c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8"}
	sessions := make([]string, 16)
	for i := range sessions {
		sessions[i] = "s" + string(rune('a'+i))
	}
	replicas := []string{"g0", "g1", "g2"}
	c.AddSource(func(r *Recorder) {
		x := r.At().Seconds()
		for i, n := range nodes {
			lbl := L("node", n)
			r.Record("node.crashed", 0, lbl)
			r.Record("node.runnable", float64(i%3), lbl)
			r.Record("node.load", 0.5+float64(i)/8, lbl)
			r.Record("node.slots", 2, lbl)
			r.Record("node.predicted_load", 0.4+float64(i)/8, lbl)
		}
		for _, s := range sessions {
			lbl := L("sess", s)
			r.Record("session.slowdown", 1.05, lbl)
			r.Record("vfs.hit_rate", 0.9, lbl)
			r.Record("vfs.retries", x, lbl)
			r.Record("vfs.transport_errors", 0, lbl)
			r.Record("lease.age", 1, lbl)
			r.Record("session.epoch", 1, lbl)
		}
		for _, g := range replicas {
			r.Record("gis.replica.lag", 0, L("replica", g))
		}
		r.Record("gis.minority_writes", 0)
	})
	for _, r := range []struct{ name, expr string }{
		{"slowdown", "mean(session.slowdown, 30s) > 1.10 for 30s"},
		{"stale-lease", "last(lease.age) > 4"},
		{"vfs-retry-storm", "rate(vfs.retries, 10s) > 5"},
		{"split-brain-risk", "rate(gis.minority_writes, 10s) > 0"},
	} {
		if err := c.AddRule(r.name, r.expr); err != nil {
			b.Fatal(err)
		}
	}
	c.Start()
	if err := k.RunFor(600 * sim.Second); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.RunFor(sim.Second); err != nil {
			b.Fatal(err)
		}
	}
}
