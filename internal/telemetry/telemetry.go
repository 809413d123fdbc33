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
// A series exists only if someone reads it. Readers declare the
// families (series names) they read: AddRule declares its rule's name,
// a code reader calls Collector.Want, and an export calls WantAll. A
// source asks the handle it records through whether its name is wanted
// (Handle.Wanted) and computes nothing for one that is not; a write to
// an unwanted name is dropped before any series is born.
//
// Rules are bound to their series once, when the series is born:
// DB.create, the one place a series is created, appends it to every
// rule that selects its name, keeping each rule's list in
// canonical-key order, so evaluation walks those lists instead of
// re-selecting on every scrape.
//
// Alert state lives with the rule and the series it watches: each rule
// keeps the pending/firing state machine of every series it currently
// holds pending or firing in a table keyed by *Series, so evaluating a
// rule hashes a pointer, not a series key string. A series is never
// removed or replaced once created, so the pointer is as stable an
// identity as its canonical key.
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
		s.data[s.slot(s.n)] = Point{At: at, V: v}
		s.n++
		return
	}
	s.data[s.start] = Point{At: at, V: v}
	s.start = s.slot(1)
}

// Len returns the number of stored samples.
func (s *Series) Len() int { return s.n }

// slot maps the i'th position from the oldest sample (0 ≤ i ≤ len)
// onto the ring buffer: one compare instead of a division.
func (s *Series) slot(i int) int {
	i += s.start
	if i >= len(s.data) {
		i -= len(s.data)
	}
	return i
}

// point returns the i'th stored sample, oldest first.
func (s *Series) point(i int) Point { return s.data[s.slot(i)] }

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
	Mean  float64
	Last  float64
}

// Window aggregates the samples with At >= since: their count, mean
// and latest value, in one allocation-free pass. An empty window
// returns the zero Agg.
func (s *Series) Window(since sim.Time) Agg {
	var a Agg
	first := s.firstSince(since)
	a.Count = s.n - first
	if a.Count == 0 {
		return a
	}
	for i := first; i < s.n; i++ {
		v := s.point(i).V
		a.Mean += v
		a.Last = v
	}
	a.Mean /= float64(a.Count)
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
// lookup, so recording to an existing series allocates nothing.
//
// Series are grouped by name into families. A family records whether
// anyone reads it, its series in canonical-key order (so Select walks
// one name's series instead of sorting every key), and the rules that
// select it. A write to a family no one wants is dropped before a
// series is born, and create binds each new series to its rules.
type DB struct {
	series   map[string]*Series
	fams     map[string]*family
	all      bool    // every family is wanted: an export, or a bare store
	keyBuf   []byte  // scratch for canonical-key rendering
	labelBuf []Label // scratch for sorting unsorted label sets
}

// family is one series name's readers and series.
type family struct {
	wanted bool
	series []*Series // in canonical-key order
	rules  []*rule   // rules selecting this name, in registration order
}

// seriesHistory is how many samples each series keeps.
const seriesHistory = 512

// NewDB creates a store keeping seriesHistory samples per series. A
// bare store keeps every series written to it; a Collector's store
// keeps only the families its readers want (see Collector.Want).
func NewDB() *DB { return newDB(true) }

func newDB(all bool) *DB {
	return &DB{series: make(map[string]*Series), fams: make(map[string]*family), all: all}
}

// family returns the family of name, creating it on first use.
func (db *DB) family(name string) *family {
	f := db.fams[name]
	if f == nil {
		f = &family{wanted: db.all}
		db.fams[name] = f
	}
	return f
}

// wants reports whether samples of name are kept.
func (db *DB) wants(name string) bool {
	if f := db.fams[name]; f != nil {
		return f.wanted
	}
	return db.all
}

// want marks name's family wanted.
func (db *DB) want(name string) { db.family(name).wanted = true }

// wantAll marks every family, present and future, wanted.
func (db *DB) wantAll() {
	db.all = true
	for _, f := range db.fams {
		f.wanted = true
	}
}

// create interns a new series under key, copying labels (already
// sorted) so callers' label slices are never retained. It is the one
// place a series is born, so it is also where the series is bound to
// every rule that selects its name.
func (db *DB) create(f *family, name, key string, labels []Label) *Series {
	s := &Series{name: name, key: key, data: make([]Point, seriesHistory)}
	if len(labels) > 0 {
		s.labels = append([]Label(nil), labels...)
	}
	db.series[key] = s
	f.series = insertByKey(f.series, s)
	for _, r := range f.rules {
		r.bind(s)
	}
	return s
}

// insertByKey inserts s into idx, which is in canonical-key order.
func insertByKey(idx []*Series, s *Series) []*Series {
	i := sort.Search(len(idx), func(i int) bool { return idx[i].key > s.key })
	idx = append(idx, nil)
	copy(idx[i+1:], idx[i:])
	idx[i] = s
	return idx
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

func sortLabels(labels []Label) {
	for i := 1; i < len(labels); i++ {
		for j := i; j > 0 && labels[j].Key < labels[j-1].Key; j-- {
			labels[j], labels[j-1] = labels[j-1], labels[j]
		}
	}
}

// Record appends a sample to the series for (name, labels), creating it
// on first use if name is wanted (a sample of an unwanted name is
// dropped). Labels are sorted by key before keying. Unlabeled samples —
// the inline instrumentation hot path — resolve by name directly;
// labeled samples render their canonical key into the scratch buffer
// and intern it on first use. at must not precede the series' newest
// sample.
func (db *DB) Record(at sim.Time, name string, labels []Label, v float64) {
	if len(labels) == 0 {
		s := db.series[name]
		if s == nil {
			if !db.wants(name) {
				return
			}
			s = db.create(db.family(name), name, name, nil)
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
		if !db.wants(name) {
			return
		}
		s = db.create(db.family(name), name, string(buf), sorted)
	}
	s.Add(at, v)
}

// Handle is one (name, labels) series identity resolved once, for
// sources that record the same series scrape after scrape: recording
// through it renders no key and hashes no string. The series is bound
// lazily, on the handle's first sample of a wanted name, so holding a
// handle never creates a series before a keyed Record would (exports
// list every key), and a handle of a name no one wants never creates
// one. A handle belongs to the DB that made it.
type Handle struct {
	db     *DB
	fam    *family
	name   string
	key    string
	labels []Label // sorted by key
	s      *Series // nil until the first wanted sample
}

// handle resolves (name, labels) into a handle. The labels are copied
// and sorted, as Record would key them.
func (db *DB) handle(name string, labels ...Label) *Handle {
	h := &Handle{db: db, fam: db.family(name), name: name}
	if len(labels) > 0 {
		h.labels = append([]Label(nil), labels...)
		sortLabels(h.labels)
	}
	h.key = string(appendKey(nil, name, h.labels))
	return h
}

// Wanted reports whether anyone reads the handle's series name. A
// source asks before it computes a value and records nothing for a
// name no one wants: its samples would be dropped anyway. Every handle
// of one name gives the same answer.
func (h *Handle) Wanted() bool { return h.fam.wanted }

// add appends a sample through the handle, binding its series — the
// one a keyed Record of the same identity would reach — on first use.
// A sample of an unwanted name costs the one test.
func (h *Handle) add(at sim.Time, v float64) {
	if !h.fam.wanted {
		return
	}
	if h.s == nil {
		h.s = h.db.series[h.key]
		if h.s == nil {
			h.s = h.db.create(h.fam, h.name, h.key, h.labels)
		}
	}
	h.s.Add(at, v)
}

// Last returns the handle's most recent sample; ok is false until its
// series holds one.
func (h *Handle) Last() (v float64, ok bool) {
	if h == nil || h.s == nil || h.s.n == 0 {
		return 0, false
	}
	return h.s.Last().V, true
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

// Select returns the series of name, in key order.
func (db *DB) Select(name string) []*Series {
	if f := db.fams[name]; f != nil {
		return append([]*Series(nil), f.series...)
	}
	return nil
}

// bindRule attaches r to its family: every existing series of the name
// now, every later one as create makes it.
func (db *DB) bindRule(r *rule) {
	f := db.family(r.series)
	f.rules = append(f.rules, r)
	r.bound = append(r.bound[:0], f.series...)
}
