package obs

import (
	"slices"
	"strings"

	"vmgrid/internal/sim"
)

// Registry holds named counters, gauges, and simulated-time histograms.
// Instruments are created on first use and cached; a nil Registry hands
// out nil instruments whose methods are no-ops, so instrumented code
// never branches on "is tracing on".
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter is a monotonically increasing count. Nil-safe.
type Counter struct{ v float64 }

// Gauge is a point-in-time value. Nil-safe.
type Gauge struct {
	v   float64
	set bool
}

// Histogram buckets simulated durations by decade: <10µs, <100µs, …,
// <100s, and an overflow bucket. Nil-safe.
type Histogram struct {
	buckets [histBuckets]uint64
	count   uint64
	sum     sim.Duration
	max     sim.Duration
}

// histBuckets: 8 decade buckets starting at 10µs plus overflow.
const histBuckets = 9

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Add increases the counter by v.
func (c *Counter) Add(v float64) {
	if c == nil {
		return
	}
	c.v += v
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Set records the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v, g.set = v, true
}

// Value returns the last set value (0 on nil or never-set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// IsSet reports whether the gauge has been set (false on nil). A
// snapshot lists only set gauges.
func (g *Gauge) IsSet() bool { return g != nil && g.set }

// Observe records one duration.
func (h *Histogram) Observe(d sim.Duration) {
	if h == nil {
		return
	}
	// Clamp negatives to zero so a clock-skewed or zero-duration span
	// lands in the first bucket instead of corrupting sum/mean.
	if d < 0 {
		d = 0
	}
	h.buckets[histBucket(d)]++
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Count returns how many durations were observed (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// MeanSec returns the mean observed duration in seconds (0 on nil or
// before the first observation).
func (h *Histogram) MeanSec() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum.Seconds() / float64(h.count)
}

// Len returns how many instruments the registry holds, gauges never set
// included (0 on nil). It changes only when an instrument is created,
// so a reader that resolves the instruments once knows when to look
// again.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.counters) + len(r.gauges) + len(r.hists)
}

// Names returns the names of the registry's counters, gauges (set or
// not) and histograms, each sorted: for a reader that resolves the
// instruments once and then reads them on every poll.
func (r *Registry) Names() (counters, gauges, hists []string) {
	if r == nil {
		return nil, nil, nil
	}
	return sortedNames(r.counters), sortedNames(r.gauges), sortedNames(r.hists)
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// histBucket maps a duration to its decade bucket index. Bucket 0
// catches everything below the first decade bound (10 µs), including
// zero-duration observations.
func histBucket(d sim.Duration) int {
	bound := sim.Duration(10) // 10 µs
	for i := 0; i < histBuckets-1; i++ {
		if d < bound {
			return i
		}
		bound *= 10
	}
	return histBuckets - 1
}

// CounterPoint is one counter in a snapshot.
type CounterPoint struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// GaugePoint is one gauge in a snapshot.
type GaugePoint struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistogramPoint summarizes one histogram in a snapshot.
type HistogramPoint struct {
	Name    string  `json:"name"`
	Count   uint64  `json:"count"`
	SumSec  float64 `json:"sumSec"`
	MeanSec float64 `json:"meanSec"`
	MaxSec  float64 `json:"maxSec"`
}

// Snapshot is a deterministic (name-sorted) view of a registry,
// serializable over the wire.
type Snapshot struct {
	Counters   []CounterPoint   `json:"counters,omitempty"`
	Gauges     []GaugePoint     `json:"gauges,omitempty"`
	Histograms []HistogramPoint `json:"histograms,omitempty"`
}

// Snapshot captures the registry's instruments sorted by name. Safe on
// a nil registry (returns an empty snapshot).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterPoint{Name: name, Value: c.v})
	}
	for name, g := range r.gauges {
		if g.set {
			s.Gauges = append(s.Gauges, GaugePoint{Name: name, Value: g.v})
		}
	}
	for name, h := range r.hists {
		s.Histograms = append(s.Histograms, HistogramPoint{
			Name:    name,
			Count:   h.count,
			SumSec:  h.sum.Seconds(),
			MeanSec: h.MeanSec(),
			MaxSec:  h.max.Seconds(),
		})
	}
	// Typed comparators: scrape-driven snapshots run often enough that
	// sort.Slice's reflective swapper shows up in profiles. Names are
	// unique map keys, so the unstable sort is still deterministic.
	slices.SortFunc(s.Counters, func(a, b CounterPoint) int { return strings.Compare(a.Name, b.Name) })
	slices.SortFunc(s.Gauges, func(a, b GaugePoint) int { return strings.Compare(a.Name, b.Name) })
	slices.SortFunc(s.Histograms, func(a, b HistogramPoint) int { return strings.Compare(a.Name, b.Name) })
	return s
}
