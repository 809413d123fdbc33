package telemetry

import (
	"math/rand"
	"sort"
	"testing"

	"vmgrid/internal/sim"
)

// Equivalence tests: the indexed Select and the binary-searched windows
// must agree exactly with the whole-store scans they replace.

// TestSelectMatchesSortedKeyScan: on randomized series sets, Select
// returns exactly the series a filter over the sorted Keys() finds, in
// the same order.
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
		db, _ := NewDB(4)
		for i := 0; i < 1+rng.Intn(60); i++ {
			db.Record(sim.Time(i), names[rng.Intn(len(names))], randLabels(), float64(i))
		}
		for q := 0; q < 20; q++ {
			name := names[rng.Intn(len(names))]
			sub := randLabels()
			if len(sub) > 2 {
				sub = sub[:2]
			}
			var want []*Series
			for _, k := range db.Keys() {
				s := db.Lookup(k)
				if s.Name() == name && labelsSubset(sub, s.Labels()) {
					want = append(want, s)
				}
			}
			got := db.Select(name, sub)
			if len(got) != len(want) {
				t.Fatalf("trial %d: Select(%q, %v) = %d series, want %d", trial, name, sub, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: Select(%q, %v)[%d] = %s, want %s", trial, name, sub, i, got[i].Key(), want[i].Key())
				}
			}
		}
	}
}

// TestRecordCopiesLabels: a new series keeps its own copy of the label
// set, so a caller reusing its label slice cannot rename a series.
func TestRecordCopiesLabels(t *testing.T) {
	db, _ := NewDB(4)
	ls := []Label{L("node", "c1")}
	db.Record(0, "load", ls, 1)
	ls[0].Value = "c2"
	if s := db.Lookup("load{node=c1}"); s == nil || s.Labels()[0].Value != "c1" {
		t.Fatalf("series labels aliased the caller's slice: %+v", s)
	}
}

// refWindow and refRate are the linear scans Window and Rate replaced.
func refWindow(s *Series, since sim.Time) Agg {
	var vals []float64
	var a Agg
	for _, p := range s.Points() {
		if p.At < since {
			continue
		}
		vals = append(vals, p.V)
		if a.Count == 0 || p.V < a.Min {
			a.Min = p.V
		}
		if a.Count == 0 || p.V > a.Max {
			a.Max = p.V
		}
		a.Mean += p.V
		a.Last = p.V
		a.Count++
	}
	if a.Count == 0 {
		return a
	}
	a.Mean /= float64(a.Count)
	sort.Float64s(vals)
	a.P99 = vals[(99*len(vals)+99)/100-1]
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
		history := 1 + rng.Intn(9)
		db, _ := NewDB(history)
		at := sim.Time(0)
		for i := 0; i < rng.Intn(3*history+2); i++ {
			if rng.Intn(3) > 0 { // a third of samples repeat the instant
				at += sim.Time(rng.Intn(3) + 1)
			}
			db.Record(at, "x", nil, rng.Float64()*10-2)
		}
		s := db.Lookup("x")
		if s == nil {
			continue
		}
		for since := sim.Time(-1); since <= at+1; since++ {
			if got, want := s.Window(since), refWindow(s, since); got != want {
				t.Fatalf("trial %d since %d: Window = %+v, want %+v", trial, since, got, want)
			}
			if got, want := s.window(since, false), refWindow(s, since); got.Count != want.Count ||
				got.Min != want.Min || got.Max != want.Max || got.Mean != want.Mean || got.Last != want.Last {
				t.Fatalf("trial %d since %d: window without p99 = %+v, want %+v", trial, since, got, want)
			}
			if got, want := s.Rate(since), refRate(s, since); got != want {
				t.Fatalf("trial %d since %d: Rate = %g, want %g", trial, since, got, want)
			}
		}
	}
}
