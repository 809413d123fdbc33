package telemetry

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"vmgrid/internal/obs"
	"vmgrid/internal/sim"
)

// refEngine evaluates rules the way the engine did before rules were
// bound at series birth: every evaluation re-selects each rule's series
// from the store, walking a snapshot so series that hooks create
// mid-pass wait for the next evaluation.
type refEngine struct {
	db      *DB
	rules   []*rule
	firings []Firing
	onFire  func(Firing)
}

func (e *refEngine) addRule(t *testing.T, name, expr string) {
	t.Helper()
	r, err := parseRule(expr)
	if err != nil {
		t.Fatal(err)
	}
	r.name = name
	r.states = make(map[*Series]*alertState)
	e.rules = append(e.rules, r)
}

func (e *refEngine) eval(now sim.Time) {
	for _, r := range e.rules {
		for _, s := range e.db.Select(r.series) {
			st := r.states[s]
			v, ok := r.value(s, now)
			if !ok || !(v > r.threshold) {
				if st != nil && st.firing {
					e.firings[st.firingIdx].ResolvedAt = now
				}
				delete(r.states, s)
				continue
			}
			if st == nil {
				st = &alertState{}
				r.states[s] = st
			}
			if st.firing {
				continue
			}
			if !st.pending {
				st.pending, st.pendingSince = true, now
			}
			if now.Sub(st.pendingSince) >= r.forDur {
				st.pending, st.firing = false, true
				st.firingIdx = len(e.firings)
				f := Firing{Rule: r.name, Series: s.Key(), At: now, Value: v, ResolvedAt: -1}
				e.firings = append(e.firings, f)
				e.onFire(f)
			}
		}
	}
}

// TestBoundRulesMatchReselect drives a collector and a re-selecting
// reference through the same random history: series born at random
// scrapes and between scrapes, rules registered mid-run over series
// that already exist, and OnFire hooks that create series (and write
// to existing ones) while the rules are being evaluated. Every scrape,
// both must hold the same firing log, in the same order.
func TestBoundRulesMatchReselect(t *testing.T) {
	early := []struct{ name, expr string }{
		{"a-hot", "last(a) > 6"},
		{"a-mean", "mean(a, 3s) > 4 for 2s"},
		{"b-last", "last(b, 5s) > 6 for 1s"},
	}
	late := []struct{ name, expr string }{
		{"b-rate", "rate(b, 4s) > 0.5"},
		{"a-bare", "a > 2"},
		{"a-rate", "rate(a, 2s) > 1"},
	}
	lateAt := map[int]int{40: 1, 70: 2, 90: 3} // step → 1 + index into late
	totalFired, hookBorn := 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := sim.NewKernel(uint64(seed))
		c := newTestCollector(t, k, nil)
		ref := &refEngine{db: NewDB()}
		for _, r := range early {
			if err := c.AddRule(r.name, r.expr); err != nil {
				t.Fatal(err)
			}
			ref.addRule(t, r.name, r.expr)
		}

		// Both sides record the same samples; record is the one writer.
		type sample struct {
			name   string
			labels []Label
			v      float64
		}
		var planned []sample
		record := func(r *Recorder, now sim.Time, s sample) {
			if r != nil {
				r.Record(s.name, s.v, s.labels...)
			} else {
				c.Record(s.name, s.v, s.labels...)
			}
			ref.db.Record(now, s.name, s.labels, s.v)
		}
		randomSample := func() sample {
			name := []string{"a", "b"}[rng.Intn(2)]
			labels := []Label{L("node", fmt.Sprintf("n%d", rng.Intn(6)))}
			if rng.Intn(4) > 0 {
				labels = append(labels, L("zone", fmt.Sprintf("z%d", rng.Intn(2))))
			}
			rng.Shuffle(len(labels), func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })
			return sample{name, labels, float64(rng.Intn(10))}
		}
		c.AddSource(func(r *Recorder) {
			for _, s := range planned {
				record(r, r.At(), s)
			}
		})

		// Hooks: every third firing births a series (which sorts among
		// the existing ones), every fifth writes to an existing series.
		born := 0
		hook := func(side string, fire func(now sim.Time, s sample)) func(Firing) {
			n := 0
			return func(f Firing) {
				n++
				if n%3 == 0 {
					fire(f.At, sample{"a", []Label{L("node", fmt.Sprintf("h%d-%s", n, f.Rule)), L("zone", "z0")}, 9})
					if side == "c" {
						born++
					}
				}
				if n%5 == 0 {
					fire(f.At, sample{"b", []Label{L("node", "n0")}, 8})
				}
			}
		}
		c.OnFire(hook("c", func(_ sim.Time, s sample) { c.Record(s.name, s.v, s.labels...) }))
		ref.onFire = hook("ref", func(now sim.Time, s sample) { ref.db.Record(now, s.name, s.labels, s.v) })

		for step := 0; step < 120; step++ {
			planned = planned[:0]
			for i := rng.Intn(8); i > 0; i-- {
				planned = append(planned, randomSample())
			}
			if i := lateAt[step]; i > 0 {
				r := late[i-1]
				if err := c.AddRule(r.name, r.expr); err != nil {
					t.Fatal(err)
				}
				ref.addRule(t, r.name, r.expr)
			}
			if err := k.RunFor(sim.Second); err != nil && err != sim.ErrStalled {
				t.Fatal(err)
			}
			if rng.Intn(3) == 0 { // a series written between scrapes
				record(nil, k.Now(), randomSample())
			}
			c.Scrape()
			ref.eval(k.Now())
			if got := c.Firings(); !reflect.DeepEqual(got, ref.firings) {
				t.Fatalf("seed %d step %d: firings\n%v\nreference\n%v", seed, step, got, ref.firings)
			}
		}
		if got, want := c.DB().Keys(), ref.db.Keys(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: keys\n%v\nreference\n%v", seed, got, want)
		}
		totalFired += len(ref.firings)
		hookBorn += born
	}
	if totalFired < 100 || hookBorn < 20 {
		t.Fatalf("history too quiet to cover binding: %d firings, %d hook-born series", totalFired, hookBorn)
	}
}

// TestUnwantedNameCreatesNoSeries: with one rule armed, only its
// family is stored. A handle, a keyed Record and an Observe of any
// other name create nothing, and Put on the handle allocates nothing.
func TestUnwantedNameCreatesNoSeries(t *testing.T) {
	k := sim.NewKernel(1)
	c := newTestCollector(t, k, nil)
	if err := c.AddRule("hot", "last(node.load) > 1"); err != nil {
		t.Fatal(err)
	}
	var h, load *Handle
	c.AddSource(func(r *Recorder) {
		if h == nil {
			h, load = r.Handle("node.runnable", L("node", "c1")), r.Handle("node.load", L("node", "c2"))
		}
		if h.Wanted() || !load.Wanted() {
			t.Errorf("Wanted: node.runnable %v, node.load %v", h.Wanted(), load.Wanted())
		}
		r.Put(h, 1)
		r.Record("node.slots", 2, L("node", "c1"))
		r.Record("node.load", 3, L("node", "c1"))
	})
	c.Observe("node.crashed", 1)
	c.Scrape()
	if got := c.DB().Keys(); !reflect.DeepEqual(got, []string{"node.load{node=c1}"}) {
		t.Fatalf("keys = %v, want only the rule's series", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.rec.Put(h, 1) }); allocs != 0 {
		t.Errorf("Put on an unwanted handle allocates %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.Observe("node.crashed", 1) }); allocs != 0 {
		t.Errorf("Observe of an unwanted name allocates %.1f objects/op, want 0", allocs)
	}
	if _, ok := h.Last(); ok || c.DB().Len() != 1 {
		t.Fatalf("an unwanted handle bound a series (%d series)", c.DB().Len())
	}
}

// TestUnreadRegistryFeedFree: an attached registry whose families no
// one wants costs a scrape nothing, neither a series nor an allocation.
// Once read, the feed stores every counter, including one created
// after the feed was resolved.
func TestUnreadRegistryFeedFree(t *testing.T) {
	k := sim.NewKernel(1)
	reg := obs.NewRegistry()
	for i := 0; i < 4; i++ {
		reg.Counter(fmt.Sprintf("ops%d", i)).Add(float64(i))
	}
	c := newTestCollector(t, k, nil)
	c.AttachRegistry("grid", reg)
	scrape := func() {
		_ = k.RunFor(sim.Second)
		c.Scrape()
	}
	if allocs := testing.AllocsPerRun(100, scrape); allocs != 0 {
		t.Errorf("scraping an unread feed allocates %.1f objects/op, want 0", allocs)
	}
	if n := c.DB().Len(); n != 0 {
		t.Fatalf("%d series stored with no reader", n)
	}
	c.WantAll()
	reg.Counter("late").Inc()
	scrape()
	if n := c.DB().Len(); n != 4+1 {
		t.Fatalf("%d series after WantAll, want 5: %v", n, c.DB().Keys())
	}
	for key, want := range map[string]float64{"late{src=grid}": 1, "ops3{src=grid}": 3} {
		if s := c.DB().Lookup(key); s == nil || s.Last().V != want {
			t.Errorf("%s: %+v, want last %v", key, s, want)
		}
	}
}

// TestWantMidRunStartsAtNextScrape: a Want made between scrapes, or by
// a source inside one, takes effect at the next scrape, so the series
// starts at a scrape instant and a write in between is dropped.
func TestWantMidRunStartsAtNextScrape(t *testing.T) {
	k := sim.NewKernel(1)
	c := newTestCollector(t, k, nil)
	c.AddSource(func(r *Recorder) {
		r.Record("x", r.At().Seconds())
		r.Record("y", r.At().Seconds())
		if r.At() == sim.Time(0).Add(2*sim.Second) {
			c.Want("y") // inside a scrape: from the next one
		}
	})
	c.Start()
	k.After(3*sim.Second+sim.Millisecond, func() {
		c.Want("x")
		c.Record("x", -1) // between scrapes: not yet wanted
	})
	if err := k.RunUntil(sim.Time(0).Add(6*sim.Second + sim.Millisecond)); err != nil && err != sim.ErrStalled {
		t.Fatal(err)
	}
	c.Stop()
	for name, first := range map[string]float64{"x": 4, "y": 3} {
		s := c.DB().Lookup(name)
		if s == nil {
			t.Fatalf("%s: no series", name)
		}
		var got []float64
		for _, p := range s.Points() {
			got = append(got, p.V)
		}
		var want []float64
		for v := first; v <= 6; v++ {
			want = append(want, v)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s samples = %v, want %v", name, got, want)
		}
	}
}

// TestExportSeesEveryFamily: a collector that wants everything keeps
// every family its sources and attached registries produce, and a
// WantAll made mid-run adds every family from the next scrape.
func TestExportSeesEveryFamily(t *testing.T) {
	families := []string{"gis.minority_writes", "node.load{node=c1}", "node.slots{node=c1}", "ops{src=grid}"} // key order
	for _, midRun := range []bool{false, true} {
		k := sim.NewKernel(1)
		tr := obs.New(k)
		tr.Metrics().Counter("ops").Add(1)
		c := newTestCollector(t, k, nil)
		c.AttachRegistry("grid", tr.Metrics())
		var load, slots *Handle
		c.AddSource(func(r *Recorder) {
			if load == nil {
				load, slots = r.Handle("node.load", L("node", "c1")), r.Handle("node.slots", L("node", "c1"))
			}
			r.Put(load, 1)
			r.Put(slots, 2)
			r.Record("gis.minority_writes", 0)
		})
		if !midRun {
			c.WantAll()
		}
		c.Scrape()
		if midRun {
			if n := c.DB().Len(); n != 0 {
				t.Fatalf("%d series before any reader", n)
			}
			c.WantAll()
			_ = k.RunFor(sim.Second)
			c.Scrape()
		}
		if got := c.DB().Keys(); !reflect.DeepEqual(got, families) {
			t.Errorf("midRun=%v: keys %v, want %v", midRun, got, families)
		}
	}
}
