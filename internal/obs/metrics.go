package obs

import (
	"slices"
	"strings"
)

// Registry holds named counters, each created on first use and cached.
// A nil Registry hands out nil counters whose methods are no-ops, so
// instrumented code never branches on "is tracing on". It keeps only
// the counts no other store holds: a fact some component already counts
// (SupervisorStats, BalancerStats, an alert's firing log, a vfs
// client's error count) is read from there, not counted here again.
type Registry struct {
	counters map[string]*Counter
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]*Counter)}
}

// Counter is a monotonically increasing count. Nil-safe.
type Counter struct{ v float64 }

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

// Len returns how many counters the registry holds (0 on nil). It
// changes only when a counter is created, so a reader that resolves the
// counters once knows when to look again.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.counters)
}

// Names returns the names of the registry's counters, sorted: for a
// reader that resolves the counters once and then reads them on every
// poll.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// CounterPoint is one counter in a snapshot.
type CounterPoint struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Snapshot is a deterministic (name-sorted) view of a registry,
// serializable over the wire.
type Snapshot struct {
	Counters []CounterPoint `json:"counters,omitempty"`
}

// Snapshot captures the registry's counters sorted by name. Safe on a
// nil registry (returns an empty snapshot).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterPoint{Name: name, Value: c.v})
	}
	// Names are unique map keys, so the unstable sort is deterministic.
	slices.SortFunc(s.Counters, func(a, b CounterPoint) int { return strings.Compare(a.Name, b.Name) })
	return s
}
