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
	db := NewDB()
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
	db := NewDB()
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
	db := NewDB()
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
	db := NewDB()
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
	c := newTestCollector(t, k, nil)
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
// with the four standard alert rules armed. Eight sessions run slow and
// four hold a stale lease, so each round re-evaluates twelve firing
// alerts beside the quiet series. The export case keeps every series,
// as an export does; readers-only keeps just the rules' series, so the
// source skips the handles no one reads.
func BenchmarkCollectorScrape(b *testing.B) {
	b.Run("export", func(b *testing.B) { benchCollectorScrape(b, true) })
	b.Run("readers-only", func(b *testing.B) { benchCollectorScrape(b, false) })
}

func benchCollectorScrape(b *testing.B, export bool) {
	k := sim.NewKernel(1)
	c, err := NewCollector(k, nil)
	if err != nil {
		b.Fatal(err)
	}
	if export {
		c.WantAll()
	}
	nodes := []string{"c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8"}
	sessions := make([]string, 16)
	for i := range sessions {
		sessions[i] = "s" + string(rune('a'+i))
	}
	replicas := []string{"g0", "g1", "g2"}
	// Each node's, session's and replica's handles are resolved on the
	// first scrape, and the source asks a handle before it computes a
	// value, as the grid's sources do.
	handles := func(r *Recorder, lbl Label, names ...string) []*Handle {
		hs := make([]*Handle, len(names))
		for i, n := range names {
			hs[i] = r.Handle(n, lbl)
		}
		return hs
	}
	var nodeHs, sessHs [][]*Handle
	var lagHs []*Handle
	var minority *Handle
	c.AddSource(func(r *Recorder) {
		if nodeHs == nil {
			for _, n := range nodes {
				nodeHs = append(nodeHs, handles(r, L("node", n),
					"node.crashed", "node.runnable", "node.load", "node.slots", "node.predicted_load"))
			}
			for _, s := range sessions {
				sessHs = append(sessHs, handles(r, L("sess", s),
					"session.slowdown", "vfs.hit_rate", "vfs.retries", "vfs.transport_errors", "lease.age", "session.epoch"))
			}
			for _, g := range replicas {
				lagHs = append(lagHs, r.Handle("gis.replica.lag", L("replica", g)))
			}
			minority = r.Handle("gis.minority_writes")
		}
		x := r.At().Seconds()
		for i, hs := range nodeHs {
			for j, v := range [...]float64{0, float64(i % 3), 0.5 + float64(i)/8, 2, 0.4 + float64(i)/8} {
				if hs[j].Wanted() {
					r.Put(hs[j], v)
				}
			}
		}
		for i, hs := range sessHs {
			slowdown, leaseAge := 1.05, 1.0
			if i < 8 {
				slowdown = 1.15
			}
			if i >= 12 {
				leaseAge = 5
			}
			for j, v := range [...]float64{slowdown, 0.9, x, 0, leaseAge, 1} {
				if hs[j].Wanted() {
					r.Put(hs[j], v)
				}
			}
		}
		for _, h := range lagHs {
			if h.Wanted() {
				r.Put(h, 0)
			}
		}
		if minority.Wanted() {
			r.Put(minority, 0)
		}
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
	want := map[string]bool{}
	for i, s := range sessions {
		if i < 8 {
			want["slowdown session.slowdown{sess="+s+"}"] = true
		}
		if i >= 12 {
			want["stale-lease lease.age{sess="+s+"}"] = true
		}
	}
	active := c.Active()
	for _, f := range active {
		if !want[f.Rule+" "+f.Series] {
			b.Fatalf("unexpected alert %s on %s", f.Rule, f.Series)
		}
	}
	if len(active) != len(want) {
		b.Fatalf("%d alerts firing after warm-up, want %d", len(active), len(want))
	}
	series := 8*5 + 16*6 + 3 + 1
	if !export {
		series = 16*3 + 1 // session.slowdown, lease.age, vfs.retries, gis.minority_writes
	}
	if n := c.DB().Len(); n != series {
		b.Fatalf("%d series after warm-up, want %d", n, series)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.RunFor(sim.Second); err != nil {
			b.Fatal(err)
		}
	}
}
