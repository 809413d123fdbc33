package telemetry

import (
	"fmt"

	"vmgrid/internal/obs"
	"vmgrid/internal/sim"
)

// scrapeInterval is the scrape cadence when the collector self-ticks
// via Start: the RPS sensor cadence.
const scrapeInterval = sim.Second

// Source is one scrape callback: read fabric state, record samples.
// Sources must only read simulation state — the collector promises that
// scraping never perturbs what it observes.
type Source func(r *Recorder)

// Recorder is the write handle a Source receives: every sample it
// records is stamped with the scrape instant.
type Recorder struct {
	db *DB
	at sim.Time
}

// At returns the scrape instant.
func (r *Recorder) At() sim.Time { return r.at }

// Record appends one sample.
func (r *Recorder) Record(name string, v float64, labels ...Label) {
	r.db.Record(r.at, name, labels, v)
}

// Handle resolves a series identity once, for a source that records
// it on every scrape (see Put).
func (r *Recorder) Handle(name string, labels ...Label) *Handle {
	return r.db.handle(name, labels...)
}

// Put is Record through a handle from this recorder's collector.
func (r *Recorder) Put(h *Handle, v float64) { h.add(r.at, v) }

// registryFeed is one attached obs registry. Its counters and their
// series handles are resolved once, again only when the registry gains
// a counter, and each scrape reads the counters through them in name
// order, as a Registry.Snapshot lists them. A sample of a family no one
// wants costs its handle's one test, so a feed no one reads stores and
// allocates nothing.
type registryFeed struct {
	src      string
	reg      *obs.Registry
	resolved int // reg.Len() when the entries below were resolved
	counters []counterEntry
	handles  map[string]*Handle // by series name
}

type counterEntry struct {
	c *obs.Counter
	h *Handle
}

// resolve lists the registry's counters in snapshot order. A series
// name seen before keeps its handle, and so the series the handle has
// bound.
func (f *registryFeed) resolve(db *DB) {
	f.counters = f.counters[:0]
	for _, name := range f.reg.Names() {
		h := f.handles[name]
		if h == nil {
			h = db.handle(name, L("src", f.src))
			f.handles[name] = h
		}
		f.counters = append(f.counters, counterEntry{f.reg.Counter(name), h})
	}
	f.resolved = f.reg.Len()
}

// scrape records the feed's counters.
func (f *registryFeed) scrape(db *DB, r *Recorder) {
	if f.reg.Len() != f.resolved {
		f.resolve(db)
	}
	for _, e := range f.counters {
		r.Put(e.h, e.c.Value())
	}
}

// Collector owns the pipeline: registered sources and obs registries
// are scraped into the DB, then the rule engine evaluates. A nil
// Collector is the disabled state — every method is a nil-receiver
// no-op costing one pointer test.
//
// Scrapes run either manually (Scrape, for drivers that must keep the
// kernel's event queue drainable, like the wire server) or on a
// self-armed tick (Start, for experiments that bound the kernel with
// RunUntil horizons).
type Collector struct {
	k     *sim.Kernel
	trace *obs.Tracer
	db    *DB

	sources []Source
	feeds   []*registryFeed
	engine  *Engine
	rec     Recorder // handed to sources, restamped per scrape

	running    bool
	next       sim.EventID
	tickFn     func() // tick, bound once so rearming allocates nothing
	scrapes    int
	lastScrape sim.Time

	// Wants made once scraping has started, applied by the next scrape.
	pending    []string
	pendingAll bool
}

// NewCollector creates an enabled collector on the kernel's clock. A
// non-nil tr receives alert firings and resolutions as instant events
// on an "alerts" track, so alerts land in the Chrome trace next to the
// spans they explain; Firings is where they are counted.
func NewCollector(k *sim.Kernel, tr *obs.Tracer) (*Collector, error) {
	if k == nil {
		return nil, fmt.Errorf("telemetry: collector without a kernel")
	}
	db := newDB(false)
	c := &Collector{k: k, trace: tr, db: db, rec: Recorder{db: db}, lastScrape: -1}
	c.tickFn = c.tick
	c.engine = newEngine(c)
	return c, nil
}

// Enabled reports whether the collector records anything.
func (c *Collector) Enabled() bool { return c != nil }

// DB returns the backing time-series store (nil on a nil collector).
func (c *Collector) DB() *DB {
	if c == nil {
		return nil
	}
	return c.db
}

// Scrapes returns how many scrape rounds have run.
func (c *Collector) Scrapes() int {
	if c == nil {
		return 0
	}
	return c.scrapes
}

// Want declares a reader of the series family name: from then on its
// samples are kept. A collector keeps only the families someone wants —
// a rule's series (AddRule declares it), a name a code reader calls
// Want for, or everything after WantAll — so a series no one reads is
// never born. A Want made after scraping has started takes effect at
// the next scrape, so a family's series all start at a scrape instant.
func (c *Collector) Want(name string) {
	if c == nil {
		return
	}
	if c.scrapes == 0 {
		c.db.want(name)
		return
	}
	c.pending = append(c.pending, name)
}

// WantAll declares a reader of every series — an export, which lists
// the whole store. It takes effect as Want does.
func (c *Collector) WantAll() {
	if c == nil {
		return
	}
	if c.scrapes == 0 {
		c.db.wantAll()
		return
	}
	c.pendingAll = true
}

// AddSource registers a scrape callback. Sources run in registration
// order on every scrape — registration order is part of the
// deterministic contract, so register sources in a fixed order.
func (c *Collector) AddSource(fn Source) {
	if c == nil || fn == nil {
		return
	}
	c.sources = append(c.sources, fn)
}

// AttachRegistry scrapes an obs counter registry on every round: each
// counter becomes a series named after it with a src label. Counters
// are read in name-sorted snapshot order, so the resulting series set
// is deterministic.
func (c *Collector) AttachRegistry(src string, reg *obs.Registry) {
	if c == nil || reg == nil {
		return
	}
	c.feeds = append(c.feeds, &registryFeed{src: src, reg: reg, handles: make(map[string]*Handle)})
}

// Observe records one unlabeled sample at the current sim time — the
// inline instrumentation hot path. On a nil collector this is a single
// pointer test.
func (c *Collector) Observe(name string, v float64) {
	if c == nil {
		return
	}
	c.db.Record(c.k.Now(), name, nil, v)
}

// Record is Observe with labels.
func (c *Collector) Record(name string, v float64, labels ...Label) {
	if c == nil {
		return
	}
	c.db.Record(c.k.Now(), name, labels, v)
}

// Scrape runs one collection round at the current instant: sources in
// registration order, then attached registries, then rule evaluation.
// A second Scrape at the same instant is a no-op, so drivers may call
// it after every operation without stacking duplicate samples.
func (c *Collector) Scrape() {
	if c == nil {
		return
	}
	now := c.k.Now()
	if c.scrapes > 0 && now == c.lastScrape {
		return
	}
	c.scrapes++
	c.lastScrape = now
	if c.pendingAll {
		c.db.wantAll()
		c.pendingAll = false
	}
	for _, name := range c.pending {
		c.db.want(name)
	}
	c.pending = c.pending[:0]
	r := &c.rec
	r.at = now
	for _, src := range c.sources {
		src(r)
	}
	for _, f := range c.feeds {
		f.scrape(c.db, r)
	}
	c.engine.eval(now)
}

// Start arms the self-ticking scrape loop (first scrape immediately).
// Self-ticking keeps the kernel's event queue non-empty forever, so it
// suits drivers that bound the simulation with RunUntil horizons; use
// manual Scrape where ErrStalled doubles as an idle detector.
func (c *Collector) Start() {
	if c == nil || c.running {
		return
	}
	c.running = true
	c.tick()
}

// Stop halts the self-ticking loop.
func (c *Collector) Stop() {
	if c == nil || !c.running {
		return
	}
	c.running = false
	c.k.Cancel(c.next)
	c.next = sim.EventID{}
}

func (c *Collector) tick() {
	if !c.running {
		return
	}
	c.Scrape()
	c.next = c.k.After(scrapeInterval, c.tickFn)
}

// AddRule parses and registers an alert rule (see the package grammar
// in rules.go) and declares its series name wanted. Rules evaluate
// after every scrape in registration order.
func (c *Collector) AddRule(name, expr string) error {
	if c == nil {
		return fmt.Errorf("telemetry: add rule %q on nil collector", name)
	}
	return c.engine.addRule(name, expr)
}

// Rules returns the registered rules in registration order.
func (c *Collector) Rules() []RuleInfo {
	if c == nil {
		return nil
	}
	return c.engine.rulesInfo()
}

// Firings returns every alert firing so far (resolved and active) in
// firing order.
func (c *Collector) Firings() []Firing {
	if c == nil {
		return nil
	}
	return append([]Firing(nil), c.engine.firings...)
}

// Active returns the currently-firing alerts in firing order.
func (c *Collector) Active() []Firing {
	if c == nil {
		return nil
	}
	var out []Firing
	for _, f := range c.engine.firings {
		if f.ResolvedAt < 0 {
			out = append(out, f)
		}
	}
	return out
}

// OnFire registers a hook invoked when an alert starts firing — the
// bridge to GIS soft state. Hooks run inside the scrape, in
// registration order.
func (c *Collector) OnFire(fn func(Firing)) {
	if c == nil || fn == nil {
		return
	}
	c.engine.onFire = append(c.engine.onFire, fn)
}

// OnResolve registers a hook invoked when a firing alert clears.
func (c *Collector) OnResolve(fn func(Firing)) {
	if c == nil || fn == nil {
		return
	}
	c.engine.onResolve = append(c.engine.onResolve, fn)
}
