// Package obs is the middleware's observability layer: hierarchical
// causal spans, a counter registry, and a bounded flight recorder, all
// keyed on the deterministic sim clock. The paper's evaluation is
// entirely about where time goes — Figure 1's virtualization slowdown,
// Table 1's VFS overhead, Table 2's per-step startup latency — and obs
// makes that decomposition a first-class output instead of something
// re-derived from Session.Events by hand.
//
// Three properties shape the design:
//
//   - Determinism. Spans are stamped with sim.Time, never wall clock,
//     and every snapshot/emission order is a pure function of recorded
//     data (insertion order for spans, sorted names for metrics).
//     Causal identity is deterministic too: TraceIDs and SpanIDs come
//     from a per-tracer splitmix64 stream seeded from the simulation
//     seed, never from a global counter or the wall clock, so a trace
//     produced under the parallel experiment runner is byte-identical
//     at any -parallel worker count.
//
//   - Nil-sink fast path. Tracing is off by default: a nil *Tracer (and
//     the nil *Counter handles it hands out) is fully
//     usable — every method is a nil-receiver no-op — so instrumented
//     hot paths pay one pointer test when disabled, nothing more.
//
//   - Causality. A span can name its parent, so one session's life
//     cycle — information-service query, GRAM submit, VFS block moves,
//     VM instantiation, supervisor failovers — is a single causal tree
//     spanning nodes, walkable by the postmortem analyzer.
//
// obs depends only on internal/sim and the standard library.
package obs

import (
	"fmt"

	"vmgrid/internal/sim"
)

// Clock yields the current simulated time. *sim.Kernel satisfies it.
type Clock interface {
	Now() sim.Time
}

// TraceID identifies one causal tree (one session life cycle, one
// recovery). Zero means "no causal identity".
type TraceID uint64

// String renders the id as fixed-width hex.
func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// SpanID identifies one span within a trace. Zero means "none".
type SpanID uint64

// String renders the id as fixed-width hex.
func (id SpanID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// SpanContext is a position in a causal tree, carried across
// boundaries (GRAM job submits, wire RPCs, VFS mounts) so work done on
// the far side parents under the caller's span. The zero value means
// "no context" and produces flat spans, exactly as before causality
// existed.
type SpanContext struct {
	Trace TraceID `json:"trace"`
	Span  SpanID  `json:"span"`
}

// Valid reports whether the context names a real span.
func (c SpanContext) Valid() bool { return c.Trace != 0 && c.Span != 0 }

// SpanRecord is one completed (or still-open) interval on a track.
// Track groups related spans onto one timeline row (a session name, a
// VM name, "vfs"); Cat classifies the span ("phase", "rpc", "vmm",
// "supervisor"); Name says what happened. An open span has End < 0.
type SpanRecord struct {
	Track string   `json:"track"`
	Cat   string   `json:"cat"`
	Name  string   `json:"name"`
	Start sim.Time `json:"startUs"`
	End   sim.Time `json:"endUs"`
	// Note carries an optional annotation (an error, a byte count)
	// surfaced in trace-viewer args.
	Note string `json:"note,omitempty"`
	// Instant marks a point event rather than an interval.
	Instant bool `json:"instant,omitempty"`
	// Trace/ID/Parent are the span's causal identity: which tree it
	// belongs to, its own id, and the span it descends from. All zero
	// for flat spans recorded without a context.
	Trace  TraceID `json:"trace,omitempty"`
	ID     SpanID  `json:"id,omitempty"`
	Parent SpanID  `json:"parent,omitempty"`
}

// Dur returns the span length, or 0 for a span that never ended.
func (r SpanRecord) Dur() sim.Duration {
	if r.End < r.Start {
		return 0
	}
	return r.End.Sub(r.Start)
}

// Context returns the record's position in its causal tree (invalid
// for flat spans).
func (r SpanRecord) Context() SpanContext {
	return SpanContext{Trace: r.Trace, Span: r.ID}
}

// defaultIDSeed seeds the id stream of tracers nobody seeded
// explicitly; any fixed constant keeps ids deterministic.
const defaultIDSeed = 0x766d677269640a5d // "vmgrid"

// Tracer records spans and instants against one sim clock and owns a
// counter Registry. A nil Tracer is the disabled state; every method
// (and Metrics(), which returns a nil Registry) is safe and free on it.
// Tracers are not goroutine-safe by design: like the kernel they
// observe, each belongs to exactly one simulation goroutine.
type Tracer struct {
	clock Clock
	reg   *Registry
	spans []SpanRecord

	// idgen is the splitmix64 state behind TraceID/SpanID allocation;
	// idused locks the seed once the first id is handed out.
	idgen  uint64
	idused bool

	// rec, when attached, receives every completed span and instant —
	// the always-on flight-recorder hook (one pointer test when absent).
	rec *FlightRecorder

	// retain is false in flight-recorder-only mode: closed spans live
	// only in the recorder's ring and their slots recycle through free,
	// so an always-on tracer stays bounded. Spans() returns nil then.
	retain bool
	free   []int
}

// New returns an enabled Tracer reading the given clock.
func New(clock Clock) *Tracer {
	return &Tracer{clock: clock, reg: NewRegistry(), idgen: defaultIDSeed, retain: true}
}

// NewFlightOnly returns a tracer that retains no span history of its
// own: completed spans flow to the attached FlightRecorder's bounded
// ring (or nowhere) and open-span slots are recycled, so memory stays
// constant no matter how long the simulation runs — the always-on
// production mode. Metrics still accumulate normally.
func NewFlightOnly(clock Clock) *Tracer {
	return &Tracer{clock: clock, reg: NewRegistry(), idgen: defaultIDSeed}
}

// SeedIDs reseeds the tracer's TraceID/SpanID stream (typically from
// the simulation seed, so ids are as deterministic as everything
// else). No-op once any id has been allocated, and on a nil tracer.
func (t *Tracer) SeedIDs(seed uint64) {
	if t == nil || t.idused {
		return
	}
	t.idgen = seed ^ defaultIDSeed
}

// nextID advances the splitmix64 stream (the same recipe sim.NewRNG
// expands its seed with). Never returns zero — zero means "no id".
func (t *Tracer) nextID() uint64 {
	t.idused = true
	t.idgen += 0x9e3779b97f4a7c15
	z := t.idgen
	z ^= z >> 30
	z *= 0xbf58476d1ce4b9b1
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// SetFlightRecorder attaches a recorder: from now on every completed
// span and instant is also appended to its bounded ring. Nil detaches.
func (t *Tracer) SetFlightRecorder(r *FlightRecorder) {
	if t == nil {
		return
	}
	t.rec = r
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Metrics returns the tracer's registry; nil for a nil tracer (the nil
// registry still hands out working no-op counters).
func (t *Tracer) Metrics() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Span is a handle to an open span. The zero Span (from a nil tracer)
// ignores End/Note calls.
type Span struct {
	t   *Tracer
	idx int
	ok  bool
}

// alloc stores an open span record and returns its slot. Flight-only
// tracers recycle slots freed by End, keeping the table bounded by the
// number of concurrently open spans.
func (t *Tracer) alloc(rec SpanRecord) int {
	if !t.retain && len(t.free) > 0 {
		i := t.free[len(t.free)-1]
		t.free = t.free[:len(t.free)-1]
		t.spans[i] = rec
		return i
	}
	t.spans = append(t.spans, rec)
	return len(t.spans) - 1
}

// Begin opens a flat span (no causal identity) at the current sim
// time. Close it with End.
func (t *Tracer) Begin(track, cat, name string) Span {
	if t == nil {
		return Span{}
	}
	idx := t.alloc(SpanRecord{
		Track: track, Cat: cat, Name: name,
		Start: t.clock.Now(), End: -1,
	})
	return Span{t: t, idx: idx, ok: true}
}

// BeginTrace opens the root span of a new causal tree: fresh TraceID,
// fresh SpanID, no parent. Everything recorded with the root's
// Context() — across GRAM, VFS, supervisor, and wire boundaries —
// hangs off this tree.
func (t *Tracer) BeginTrace(track, cat, name string) Span {
	if t == nil {
		return Span{}
	}
	idx := t.alloc(SpanRecord{
		Track: track, Cat: cat, Name: name,
		Start: t.clock.Now(), End: -1,
		Trace: TraceID(t.nextID()), ID: SpanID(t.nextID()),
	})
	return Span{t: t, idx: idx, ok: true}
}

// BeginChild opens a span parented under ctx: same trace, fresh
// SpanID, Parent = ctx.Span. An invalid (zero) ctx degrades to a flat
// Begin, so call sites never branch on whether causality is wired.
func (t *Tracer) BeginChild(ctx SpanContext, track, cat, name string) Span {
	if t == nil {
		return Span{}
	}
	if !ctx.Valid() {
		return t.Begin(track, cat, name)
	}
	idx := t.alloc(SpanRecord{
		Track: track, Cat: cat, Name: name,
		Start: t.clock.Now(), End: -1,
		Trace: ctx.Trace, ID: SpanID(t.nextID()), Parent: ctx.Span,
	})
	return Span{t: t, idx: idx, ok: true}
}

// Context returns the span's position in its causal tree, for passing
// across a boundary so the far side's spans parent under this one.
// Invalid for flat spans and the zero Span.
func (s Span) Context() SpanContext {
	if !s.ok {
		return SpanContext{}
	}
	r := s.t.spans[s.idx]
	return SpanContext{Trace: r.Trace, Span: r.ID}
}

// End closes the span at the current sim time.
func (s Span) End() {
	if !s.ok {
		return
	}
	t := s.t
	t.spans[s.idx].End = t.clock.Now()
	if t.rec != nil {
		t.rec.noteSpan(t.spans[s.idx])
	}
	if !t.retain {
		t.free = append(t.free, s.idx)
	}
}

// EndErr closes the span, annotating it with err when non-nil.
func (s Span) EndErr(err error) {
	if !s.ok {
		return
	}
	if err != nil {
		s.t.spans[s.idx].Note = err.Error()
	}
	s.End()
}

// Note annotates the open span. Calling Note after End is undefined in
// flight-only mode (the slot may have been recycled).
func (s Span) Note(note string) {
	if !s.ok {
		return
	}
	s.t.spans[s.idx].Note = note
}

// record stores a completed span: into the span table when the tracer
// retains history, and into the flight recorder when one is attached.
func (t *Tracer) record(rec SpanRecord) {
	if t.retain {
		t.spans = append(t.spans, rec)
	}
	if t.rec != nil {
		t.rec.noteSpan(rec)
	}
}

// SpanAt records a complete flat span with explicit bounds — used when
// the interval is reconstructed after the fact (e.g. session lifecycle
// phases derived from consecutive marks).
func (t *Tracer) SpanAt(track, cat, name string, start, end sim.Time) {
	if t == nil {
		return
	}
	t.record(SpanRecord{Track: track, Cat: cat, Name: name, Start: start, End: end})
}

// SpanAtChild is SpanAt parented under ctx, returning the recorded
// span's own context (so later reconstructions can chain). A zero ctx
// records a flat span and returns the zero context.
func (t *Tracer) SpanAtChild(ctx SpanContext, track, cat, name string, start, end sim.Time) SpanContext {
	if t == nil {
		return SpanContext{}
	}
	if !ctx.Valid() {
		t.SpanAt(track, cat, name, start, end)
		return SpanContext{}
	}
	rec := SpanRecord{
		Track: track, Cat: cat, Name: name, Start: start, End: end,
		Trace: ctx.Trace, ID: SpanID(t.nextID()), Parent: ctx.Span,
	}
	t.record(rec)
	return rec.Context()
}

// Instant records a zero-duration event at the current sim time.
func (t *Tracer) Instant(track, cat, name string) {
	if t == nil {
		return
	}
	now := t.clock.Now()
	t.record(SpanRecord{Track: track, Cat: cat, Name: name, Start: now, End: now, Instant: true})
}

// Spans returns a copy of the recorded spans in recording order: the
// caller owns the result and later recording never mutates it (the
// pre-causality version returned the live backing array). Always nil
// for flight-only tracers — read their history from the recorder.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil || !t.retain {
		return nil
	}
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	return out
}

// spansRO returns the live span slice for same-package readers that
// only iterate (Chrome emission, phase stats); callers must not mutate
// or retain it.
func (t *Tracer) spansRO() []SpanRecord {
	if t == nil || !t.retain {
		return nil
	}
	return t.spans
}
