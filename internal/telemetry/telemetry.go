// Package telemetry is the grid-wide monitoring pipeline: a bounded
// in-memory time-series store fed by periodic scrapes of the fabric
// (obs metrics registries, node and session gauges, supervisor lease
// ages, rps load predictions), windowed aggregation over the stored
// history, and a declarative threshold/for-duration alert engine whose
// firings are ordinary simulated-time events.
//
// The package generalizes rps.Series — a plain float64 ring buffer — to
// timestamped, labeled series: each Series is still a bounded ring, but
// every sample carries its sim.Time and the series is keyed by a name
// plus a sorted label set, Prometheus-style ("node.load{node=c1}").
//
// Series are append-only in simulated time: every sample is stamped
// with the recording kernel's clock, which never runs backwards, so a
// ring's samples are sorted by At oldest-first. Windowed reads rely on
// this and find a window's start by binary search.
//
// Like obs, telemetry inherits the two design rules of the simulation:
//
//   - Determinism. Samples are stamped with sim.Time; snapshot, export,
//     and rule-evaluation order are pure functions of the recorded data
//     (series in key order, rules in registration order). A telemetry
//     set collected under the parallel experiment runner is therefore
//     byte-identical at any -parallel worker count.
//
//   - Nil fast path. A nil *Collector is the disabled state: every
//     method is a nil-receiver no-op, so instrumented code pays one
//     pointer test when telemetry is off.
//
// telemetry depends only on internal/sim, internal/obs, and the
// standard library.
package telemetry

import (
	"fmt"
	"sort"

	"vmgrid/internal/sim"
)

// Point is one timestamped sample.
type Point struct {
	At sim.Time
	V  float64
}

// Label is one key=value dimension of a series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for building a label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// appendKey appends the canonical series identity — name plus sorted
// labels, e.g. `node.load{node=c1}` — to dst. Series with no labels key
// as the bare name.
func appendKey(dst []byte, name string, labels []Label) []byte {
	dst = append(dst, name...)
	if len(labels) == 0 {
		return dst
	}
	dst = append(dst, '{')
	for i, l := range labels {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, l.Key...)
		dst = append(dst, '=')
		dst = append(dst, l.Value...)
	}
	return append(dst, '}')
}

// Series is a bounded ring buffer of timestamped samples under one
// (name, labels) identity — rps.Series with time and dimensions.
type Series struct {
	name   string
	labels []Label // sorted by key
	key    string

	data  []Point
	start int
	n     int
}

// Name returns the series name (without labels).
func (s *Series) Name() string { return s.name }

// Labels returns the sorted label set (shared; do not mutate).
func (s *Series) Labels() []Label { return s.labels }

// Key returns the canonical identity, name{k=v,...}.
func (s *Series) Key() string { return s.key }

// Add appends a sample, evicting the oldest when the ring is full.
// Samples must arrive in non-decreasing At order (see the package
// comment).
func (s *Series) Add(at sim.Time, v float64) {
	if s.n < len(s.data) {
		s.data[(s.start+s.n)%len(s.data)] = Point{At: at, V: v}
		s.n++
		return
	}
	s.data[s.start] = Point{At: at, V: v}
	s.start = (s.start + 1) % len(s.data)
}

// Len returns the number of stored samples.
func (s *Series) Len() int { return s.n }

// point returns the i'th stored sample, oldest first.
func (s *Series) point(i int) Point { return s.data[(s.start+i)%len(s.data)] }

// Last returns the most recent sample (zero Point if empty).
func (s *Series) Last() Point {
	if s.n == 0 {
		return Point{}
	}
	return s.point(s.n - 1)
}

// Points returns the samples oldest-first (a copy).
func (s *Series) Points() []Point {
	out := make([]Point, s.n)
	for i := range out {
		out[i] = s.point(i)
	}
	return out
}

// firstSince returns the index of the oldest sample with At >= since,
// or Len() when there is none: a binary search over the time-sorted
// ring.
func (s *Series) firstSince(since sim.Time) int {
	lo, hi := 0, s.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.point(mid).At < since {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Agg summarizes the samples of one window.
type Agg struct {
	Count int
	Min   float64
	Max   float64
	Mean  float64
	Last  float64
	// P99 is the nearest-rank 99th percentile of the window.
	P99 float64
}

// Window aggregates the samples with At >= since (min/max/mean/p99 over
// the sliding window, plus the latest value). An empty window returns
// the zero Agg.
func (s *Series) Window(since sim.Time) Agg { return s.window(since, true) }

// window is Window with the percentile optional: only p99 needs the
// window's values collected and sorted, so the other aggregates cost
// one allocation-free pass.
func (s *Series) window(since sim.Time, p99 bool) Agg {
	var a Agg
	first := s.firstSince(since)
	a.Count = s.n - first
	if a.Count == 0 {
		return a
	}
	var vals []float64
	if p99 {
		vals = make([]float64, 0, a.Count)
	}
	for i := first; i < s.n; i++ {
		v := s.point(i).V
		if i == first || v < a.Min {
			a.Min = v
		}
		if i == first || v > a.Max {
			a.Max = v
		}
		a.Mean += v
		a.Last = v
		if p99 {
			vals = append(vals, v)
		}
	}
	a.Mean /= float64(a.Count)
	if p99 {
		sort.Float64s(vals)
		rank := (99*len(vals) + 99) / 100 // nearest-rank ceil(0.99·n)
		a.P99 = vals[rank-1]
	}
	return a
}

// Rate returns the per-second increase of the series over the window —
// (last-first)/(t_last-t_first) across samples with At >= since. Windows
// with fewer than two samples (or no time spread) rate as 0. Meaningful
// for cumulative counters.
func (s *Series) Rate(since sim.Time) float64 {
	i := s.firstSince(since)
	if s.n-i < 2 {
		return 0
	}
	first, last := s.point(i), s.Last()
	if last.At <= first.At {
		return 0
	}
	return (last.V - first.V) / last.At.Sub(first.At).Seconds()
}

// DB is the bounded time-series store: series are created on first
// write and hold at most the configured history per series. Canonical
// keys are interned: the observe path renders the key into a reused
// scratch buffer and resolves the series through a zero-copy map
// lookup, so recording to an existing series allocates nothing. Each
// name's series are also indexed in canonical-key order, so Select
// walks one name's series instead of sorting every key.
type DB struct {
	history  int
	series   map[string]*Series
	byName   map[string][]*Series // per name, in canonical-key order
	keyBuf   []byte               // scratch for canonical-key rendering
	labelBuf []Label              // scratch for sorting unsorted label sets
}

// NewDB creates a store keeping history samples per series.
func NewDB(history int) (*DB, error) {
	if history <= 0 {
		return nil, fmt.Errorf("telemetry: history %d", history)
	}
	return &DB{history: history, series: make(map[string]*Series), byName: make(map[string][]*Series)}, nil
}

// create interns a new series under key, copying labels (already
// sorted) so callers' label slices are never retained.
func (db *DB) create(name, key string, labels []Label) *Series {
	s := &Series{name: name, key: key, data: make([]Point, db.history)}
	if len(labels) > 0 {
		s.labels = append([]Label(nil), labels...)
	}
	db.series[key] = s
	idx := db.byName[name]
	i := sort.Search(len(idx), func(i int) bool { return idx[i].key > key })
	idx = append(idx, nil)
	copy(idx[i+1:], idx[i:])
	idx[i] = s
	db.byName[name] = idx
	return s
}

// labelsSorted reports whether ls is sorted by key — the manual loop
// sort.SliceIsSorted would run, without boxing the slice or minting a
// comparison closure on every Record.
func labelsSorted(ls []Label) bool {
	for i := 1; i < len(ls); i++ {
		if ls[i].Key < ls[i-1].Key {
			return false
		}
	}
	return true
}

// Record appends a sample to the series for (name, labels), creating it
// on first use. Labels are sorted by key before keying. Unlabeled
// samples — the inline instrumentation hot path — resolve by name
// directly; labeled samples render their canonical key into the scratch
// buffer and intern it on first use. at must not precede the series'
// newest sample.
func (db *DB) Record(at sim.Time, name string, labels []Label, v float64) {
	if len(labels) == 0 {
		s := db.series[name]
		if s == nil {
			s = db.create(name, name, nil)
		}
		s.Add(at, v)
		return
	}
	sorted := labels // never stored: keeps the caller's slice off the heap
	if !labelsSorted(labels) {
		db.labelBuf = append(db.labelBuf[:0], labels...)
		sortLabels(db.labelBuf)
		sorted = db.labelBuf
	}
	buf := appendKey(db.keyBuf[:0], name, sorted)
	db.keyBuf = buf
	s := db.series[string(buf)] // zero-copy lookup: the conversion does not escape
	if s == nil {
		s = db.create(name, string(buf), sorted)
	}
	s.Add(at, v)
}

// Lookup returns the series with the exact canonical key, or nil.
func (db *DB) Lookup(key string) *Series { return db.series[key] }

// Len returns the number of distinct series.
func (db *DB) Len() int { return len(db.series) }

// Keys returns every canonical series key, sorted — the deterministic
// iteration order for snapshots and export.
func (db *DB) Keys() []string {
	keys := make([]string, 0, len(db.series))
	for k := range db.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Select returns the series matching name and carrying every label of
// sub (a subset match; empty sub matches all), in key order.
func (db *DB) Select(name string, sub []Label) []*Series {
	return db.appendSelect(nil, name, sub)
}

// appendSelect is Select appending into dst, so a caller that reuses
// dst selects without allocating.
func (db *DB) appendSelect(dst []*Series, name string, sub []Label) []*Series {
	for _, s := range db.byName[name] {
		if labelsSubset(sub, s.labels) {
			dst = append(dst, s)
		}
	}
	return dst
}

// labelsSubset reports whether every label of sub appears in set.
func labelsSubset(sub, set []Label) bool {
	for _, want := range sub {
		found := false
		for _, have := range set {
			if have == want {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
