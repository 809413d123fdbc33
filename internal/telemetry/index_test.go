package telemetry

import (
	"math/rand"
	"testing"

	"vmgrid/internal/sim"
)

// Equivalence tests: the indexed Select and the binary-searched windows
// must agree exactly with the whole-store scans they replace.

// TestSelectMatchesSortedKeyScan: on randomized series sets, Select
// returns exactly the series of the name a filter over the sorted
// Keys() finds, in the same order.
func TestSelectMatchesSortedKeyScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	names := []string{"load", "load.x", "lo", "slots"}
	keys := []string{"a", "b", "node", "z"}
	vals := []string{"1", "2", "c1", "c10", "c2"}
	randLabels := func() []Label {
		var ls []Label
		for _, k := range keys {
			if rng.Intn(2) == 0 {
				ls = append(ls, L(k, vals[rng.Intn(len(vals))]))
			}
		}
		rng.Shuffle(len(ls), func(i, j int) { ls[i], ls[j] = ls[j], ls[i] })
		return ls
	}
	for trial := 0; trial < 50; trial++ {
		db := NewDB()
		for i := 0; i < 1+rng.Intn(60); i++ {
			db.Record(sim.Time(i), names[rng.Intn(len(names))], randLabels(), float64(i))
		}
		for _, name := range names {
			var want []*Series
			for _, k := range db.Keys() {
				if s := db.Lookup(k); s.Name() == name {
					want = append(want, s)
				}
			}
			got := db.Select(name)
			if len(got) != len(want) {
				t.Fatalf("trial %d: Select(%q) = %d series, want %d", trial, name, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: Select(%q)[%d] = %s, want %s", trial, name, i, got[i].Key(), want[i].Key())
				}
			}
		}
	}
}

// TestRecordCopiesLabels: a new series keeps its own copy of the label
// set, so a caller reusing its label slice cannot rename a series.
func TestRecordCopiesLabels(t *testing.T) {
	db := NewDB()
	ls := []Label{L("node", "c1")}
	db.Record(0, "load", ls, 1)
	ls[0].Value = "c2"
	if s := db.Lookup("load{node=c1}"); s == nil || s.Labels()[0].Value != "c1" {
		t.Fatalf("series labels aliased the caller's slice: %+v", s)
	}
}

// refWindow and refRate are the linear scans Window and Rate replaced.
func refWindow(s *Series, since sim.Time) Agg {
	var a Agg
	for _, p := range s.Points() {
		if p.At < since {
			continue
		}
		a.Mean += p.V
		a.Last = p.V
		a.Count++
	}
	if a.Count > 0 {
		a.Mean /= float64(a.Count)
	}
	return a
}

func refRate(s *Series, since sim.Time) float64 {
	var first, last Point
	count := 0
	for _, p := range s.Points() {
		if p.At < since {
			continue
		}
		if count == 0 {
			first = p
		}
		last = p
		count++
	}
	if count < 2 || last.At <= first.At {
		return 0
	}
	return (last.V - first.V) / last.At.Sub(first.At).Seconds()
}

// TestWindowAndRateMatchLinearScan: on rings that have wrapped (and on
// ones that have not), with runs of equal timestamps, every window
// start gives the linear scan's exact aggregate and rate.
func TestWindowAndRateMatchLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		// A small ring wraps within a few samples; the DB's rings wrap
		// the same way at seriesHistory.
		history := 1 + rng.Intn(9)
		s := &Series{name: "x", key: "x", data: make([]Point, history)}
		at := sim.Time(0)
		for i := 0; i < rng.Intn(3*history+2); i++ {
			if rng.Intn(3) > 0 { // a third of samples repeat the instant
				at += sim.Time(rng.Intn(3) + 1)
			}
			s.Add(at, rng.Float64()*10-2)
		}
		for since := sim.Time(-1); since <= at+1; since++ {
			if got, want := s.Window(since), refWindow(s, since); got != want {
				t.Fatalf("trial %d since %d: Window = %+v, want %+v", trial, since, got, want)
			}
			if got, want := s.Rate(since), refRate(s, since); got != want {
				t.Fatalf("trial %d since %d: Rate = %g, want %g", trial, since, got, want)
			}
		}
	}
}

// TestHandleBindsLazilyToRecordSeries: a handle creates no series until
// its first sample, then lands in exactly the series a keyed Record of
// the same identity reaches — whichever of the two writes first, and
// whatever order the handle's labels came in.
func TestHandleBindsLazilyToRecordSeries(t *testing.T) {
	db := NewDB()
	h := db.handle("node.load", L("site", "nwu"), L("node", "c1"))
	if db.Len() != 0 {
		t.Fatalf("resolving a handle created %d series", db.Len())
	}
	r := &Recorder{db: db, at: 1}
	r.Put(h, 0.5)
	s := db.Lookup("node.load{node=c1,site=nwu}")
	if db.Len() != 1 || s == nil || s.Len() != 1 || len(s.Labels()) != 2 {
		t.Fatalf("first Put: keys %v", db.Keys())
	}
	db.Record(2, "node.load", []Label{L("node", "c1"), L("site", "nwu")}, 0.7)
	if got := s.Points(); len(got) != 2 || got[1].V != 0.7 {
		t.Fatalf("keyed Record after Put: points %v", got)
	}

	db.Record(3, "node.slots", []Label{L("node", "c1")}, 2)
	h2 := db.handle("node.slots", L("node", "c1"))
	r.at = 4
	r.Put(h2, 1)
	if db.Len() != 2 || db.Lookup("node.slots{node=c1}").Len() != 2 {
		t.Fatalf("Put after keyed Record: keys %v", db.Keys())
	}
	if got := db.Select("node.slots"); len(got) != 1 {
		t.Fatalf("Select after Put found %d series, want 1", len(got))
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Put(h, 1) }); allocs != 0 {
		t.Errorf("Put through a bound handle allocates %v times, want 0", allocs)
	}
}
