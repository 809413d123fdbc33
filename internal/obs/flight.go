package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"vmgrid/internal/sim"
)

// FlightRecorder is the always-on black box: a bounded ring of the
// most recently completed spans and instants (attached to a Tracer
// with SetFlightRecorder), plus the incident bundles frozen from it.
// Like the rest of obs it is deterministic — ids, ordering, and
// incident numbering are pure functions of recorded data — and cheap
// when absent: an unattached recorder costs instrumented code one
// pointer test per completed span.
//
// Incidents come in two shapes. FreezeNow snapshots the ring
// immediately (an SLO alert fired, a zombie incarnation was fenced).
// Open starts an incident rooted at a live span (a recovery's failover
// span): the snapshot is taken at the trigger, every later span of the
// root's trace is captured as it completes, and the incident seals
// itself — postmortem report included — the moment the root span ends.
type FlightRecorder struct {
	clock Clock

	ring []SpanRecord
	next int
	full bool
	seen uint64

	seq     int
	sealed  []*Incident
	open    []*Incident
	dropped int
}

// The recorder's memory bounds.
const (
	// flightSpanCap is the ring capacity in completed spans.
	flightSpanCap = 512
	// flightMaxIncidents bounds retained incident bundles, open +
	// sealed; triggers beyond it are counted in Dropped.
	flightMaxIncidents = 16
	// flightMaxCausal bounds the causal capture of one open incident;
	// an incident that outgrows it seals early.
	flightMaxCausal = 4096
)

// NewFlightRecorder returns a recorder reading the given clock.
func NewFlightRecorder(clock Clock) *FlightRecorder {
	return &FlightRecorder{clock: clock, ring: make([]SpanRecord, 0, flightSpanCap)}
}

// Incident is one frozen bundle: what the grid looked like when the
// trigger fired, the causal tree of the affected trace, and the
// postmortem computed from it at seal time.
type Incident struct {
	// ID is deterministic: sequence number plus trigger slug.
	ID string `json:"id"`
	// Trigger says why the bundle froze: "recovery", "fence", or
	// "alert:<rule>".
	Trigger string `json:"trigger"`
	// Subject names what the incident is about (a session, a series).
	Subject string `json:"subject"`
	// At is when the trigger fired; SealedAt when the bundle closed
	// (equal for FreezeNow incidents, -1 while still open).
	At       sim.Time `json:"atUs"`
	SealedAt sim.Time `json:"sealedUs"`
	// Root is the causal root the postmortem walks (zero for rootless
	// snapshots).
	Root SpanContext `json:"root"`
	// Context is the ring snapshot at trigger time — the recent past.
	Context []SpanRecord `json:"context"`
	// Causal is the root's causal tree: trace members already in the
	// ring at trigger time plus every member completed before sealing.
	Causal []SpanRecord `json:"causal,omitempty"`
	// Report is the postmortem (critical path + attribution), computed
	// when the incident seals; nil for rootless snapshots.
	Report *Report `json:"report,omitempty"`
}

// Sealed reports whether the bundle is closed.
func (inc *Incident) Sealed() bool { return inc.SealedAt >= 0 }

// noteSpan is the tracer's feed: every completed span and instant
// lands in the ring, and open incidents capture their trace's members.
func (r *FlightRecorder) noteSpan(rec SpanRecord) {
	if r == nil {
		return
	}
	r.seen++
	if len(r.ring) < flightSpanCap {
		r.ring = append(r.ring, rec)
	} else {
		r.ring[r.next] = rec
		r.next = (r.next + 1) % flightSpanCap
		r.full = true
	}
	if len(r.open) == 0 {
		return
	}
	// Iterate a copy of the open list: sealing mutates it.
	still := r.open
	for _, inc := range still {
		if rec.Trace == 0 || rec.Trace != inc.Root.Trace {
			continue
		}
		inc.Causal = append(inc.Causal, rec)
		if rec.ID == inc.Root.Span || len(inc.Causal) >= flightMaxCausal {
			r.seal(inc)
		}
	}
}

// Snapshot returns the ring's contents oldest-first (a copy).
func (r *FlightRecorder) Snapshot() []SpanRecord {
	if r == nil {
		return nil
	}
	if !r.full {
		out := make([]SpanRecord, len(r.ring))
		copy(out, r.ring)
		return out
	}
	out := make([]SpanRecord, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// SpansSeen returns how many spans ever passed through the ring.
func (r *FlightRecorder) SpansSeen() uint64 {
	if r == nil {
		return 0
	}
	return r.seen
}

// Dropped returns how many triggers were discarded because
// flightMaxIncidents bundles already existed.
func (r *FlightRecorder) Dropped() int {
	if r == nil {
		return 0
	}
	return r.dropped
}

// slug makes a trigger safe inside an incident id.
func slug(s string) string {
	b := []byte(s)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-':
		case c >= 'A' && c <= 'Z':
			b[i] = c + ('a' - 'A')
		default:
			b[i] = '-'
		}
	}
	return string(b)
}

// newIncident allocates the bundle shell shared by Open and FreezeNow,
// or nil when the incident budget is spent.
func (r *FlightRecorder) newIncident(trigger, subject string) *Incident {
	if len(r.sealed)+len(r.open) >= flightMaxIncidents {
		r.dropped++
		return nil
	}
	r.seq++
	return &Incident{
		ID:       fmt.Sprintf("inc-%03d-%s", r.seq, slug(trigger)),
		Trigger:  trigger,
		Subject:  subject,
		At:       r.clock.Now(),
		SealedAt: -1,
		Context:  r.Snapshot(),
	}
}

// FreezeNow captures an immediately-sealed incident: ring snapshot,
// no causal capture, no report. Returns the incident id ("" if the
// bundle budget is spent or the recorder is nil).
func (r *FlightRecorder) FreezeNow(trigger, subject string) string {
	if r == nil {
		return ""
	}
	inc := r.newIncident(trigger, subject)
	if inc == nil {
		return ""
	}
	inc.SealedAt = inc.At
	r.sealed = append(r.sealed, inc)
	return inc.ID
}

// Open starts an incident rooted at a live span: trace members already
// in the ring seed the causal capture, later members append as they
// complete, and the incident seals — computing its postmortem — when
// the root span itself ends (or the capture hits flightMaxCausal). An
// invalid root degrades to FreezeNow.
func (r *FlightRecorder) Open(trigger, subject string, root SpanContext) string {
	if r == nil {
		return ""
	}
	if !root.Valid() {
		return r.FreezeNow(trigger, subject)
	}
	inc := r.newIncident(trigger, subject)
	if inc == nil {
		return ""
	}
	inc.Root = root
	for _, s := range inc.Context {
		if s.Trace == root.Trace {
			inc.Causal = append(inc.Causal, s)
		}
	}
	r.open = append(r.open, inc)
	return inc.ID
}

// seal closes an open incident: compute the postmortem and move the
// bundle to the sealed list. An incident sealed at the causal cap has
// no root record yet, so its postmortem covers the root as still open:
// from its earliest known instant (the trigger or the first captured
// member) to the seal.
func (r *FlightRecorder) seal(inc *Incident) {
	inc.SealedAt = r.clock.Now()
	spans := inc.Causal
	if spans[len(spans)-1].ID != inc.Root.Span {
		open := SpanRecord{
			Track: inc.Subject, Cat: "incident", Name: inc.Trigger,
			Start: inc.At, End: inc.SealedAt, Note: "root open at the causal cap",
			Trace: inc.Root.Trace, ID: inc.Root.Span,
		}
		for _, s := range spans {
			open.Start = min(open.Start, s.Start)
		}
		spans = append(spans[:len(spans):len(spans)], open)
	}
	inc.Report = Analyze(spans, inc.Root)
	kept := r.open[:0]
	for _, o := range r.open {
		if o != inc {
			kept = append(kept, o)
		}
	}
	r.open = kept
	r.sealed = append(r.sealed, inc)
}

// Incidents returns every bundle — sealed first (in seal order), then
// still-open ones (in open order).
func (r *FlightRecorder) Incidents() []*Incident {
	if r == nil {
		return nil
	}
	out := make([]*Incident, 0, len(r.sealed)+len(r.open))
	out = append(out, r.sealed...)
	out = append(out, r.open...)
	return out
}

// Incident returns the bundle with the given id, or nil.
func (r *FlightRecorder) Incident(id string) *Incident {
	for _, inc := range r.Incidents() {
		if inc.ID == id {
			return inc
		}
	}
	return nil
}

// IncidentSet aggregates the incident bundles of many independent
// simulations (one per experiment sample), mirroring TraceSet: entries
// are added in sample-index order after the fan-out joins, so the JSON
// export is byte-identical at any -parallel worker count.
type IncidentSet struct {
	entries []incidentEntry
}

type incidentEntry struct {
	Label     string      `json:"label"`
	Incidents []*Incident `json:"incidents"`
}

// NewIncidentSet returns an empty set.
func NewIncidentSet() *IncidentSet { return &IncidentSet{} }

// Add appends one sample's incidents under a label. Nil recorders and
// recorders with no incidents are recorded as empty entries, keeping
// sample indexing aligned with the experiment design.
func (is *IncidentSet) Add(label string, r *FlightRecorder) {
	if is == nil {
		return
	}
	is.entries = append(is.entries, incidentEntry{Label: label, Incidents: r.Incidents()})
}

// Len returns the number of samples collected.
func (is *IncidentSet) Len() int {
	if is == nil {
		return 0
	}
	return len(is.entries)
}

// Total returns the incident count across all samples.
func (is *IncidentSet) Total() int {
	if is == nil {
		return 0
	}
	n := 0
	for _, e := range is.entries {
		n += len(e.Incidents)
	}
	return n
}

// WriteJSON emits the set deterministically: {"incidents":[{label,
// incidents:[...]}, ...]} with entries in Add order and struct-ordered
// fields throughout.
func (is *IncidentSet) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	entries := []incidentEntry{}
	if is != nil {
		entries = is.entries
	}
	enc := json.NewEncoder(bw)
	enc.SetIndent("", " ")
	if err := enc.Encode(struct {
		Incidents []incidentEntry `json:"incidents"`
	}{entries}); err != nil {
		return err
	}
	return bw.Flush()
}
