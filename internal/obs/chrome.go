package obs

import (
	"bufio"
	"fmt"
	"io"

	"vmgrid/internal/sim"
)

// TraceSet aggregates the tracers of many independent simulations (one
// per experiment sample) into one Chrome trace. Entries must be added
// in a deterministic order — the experiment runners collect per-sample
// tracers in sample-index order after the fan-out joins, so a set built
// under -parallel is identical at any worker count.
type TraceSet struct {
	entries []setEntry
}

type setEntry struct {
	label  string
	tracer *Tracer
}

// NewTraceSet returns an empty set.
func NewTraceSet() *TraceSet { return &TraceSet{} }

// Add appends one sample's tracer under a human-readable label (the
// experiment cell, e.g. "table2/unix-nfs"). Nil tracers are ignored.
func (ts *TraceSet) Add(label string, t *Tracer) {
	if ts == nil || t == nil {
		return
	}
	ts.entries = append(ts.entries, setEntry{label: label, tracer: t})
}

// Len returns the number of collected tracers.
func (ts *TraceSet) Len() int {
	if ts == nil {
		return 0
	}
	return len(ts.entries)
}

// Entry is one (label, tracer) pair of a TraceSet.
type Entry struct {
	Label  string
	Tracer *Tracer
}

// Entries returns the set's pairs in Add order.
func (ts *TraceSet) Entries() []Entry {
	if ts == nil {
		return nil
	}
	out := make([]Entry, len(ts.entries))
	for i, e := range ts.entries {
		out[i] = Entry{Label: e.label, Tracer: e.tracer}
	}
	return out
}

// WriteChrome emits the set in Chrome trace-event JSON (the format
// chrome://tracing and Perfetto load). Each entry becomes one "process"
// (pid = entry index, named by its label); each track becomes one
// "thread" (tid = first-use order). sim.Time is microseconds, exactly
// the unit the format's ts/dur fields expect, so timestamps pass
// through unconverted. Output bytes are a pure function of the recorded
// spans: field order is fixed, map iteration is never used.
func (ts *TraceSet) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(line string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(line)
	}
	if ts != nil {
		for pid, e := range ts.entries {
			emit(fmt.Sprintf(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%q}}`,
				pid, e.label))
			tids := map[string]int{}
			var order []string
			tid := func(track string) int {
				id, ok := tids[track]
				if !ok {
					id = len(order)
					tids[track] = id
					order = append(order, track)
					emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%q}}`,
						pid, id, track))
				}
				return id
			}
			// Parent lookup for flow binding: a child on a different
			// track than its parent gets an explicit flow arrow, so
			// client RPC spans visually bind to their server-side
			// handler spans instead of rendering as unrelated tracks.
			spans := e.tracer.spansRO()
			byID := map[SpanID]int{}
			for i, s := range spans {
				if s.ID != 0 {
					byID[s.ID] = i
				}
			}
			for _, s := range spans {
				id := tid(s.Track)
				args := chromeArgs(s)
				if s.Instant {
					emit(fmt.Sprintf(`{"name":%q,"cat":%q,"ph":"i","ts":%d,"pid":%d,"tid":%d,"s":"t"%s}`,
						s.Name, s.Cat, int64(s.Start), pid, id, args))
					continue
				}
				end := s.End
				if end < s.Start {
					end = s.Start // never-closed span renders as zero-length
				}
				emit(fmt.Sprintf(`{"name":%q,"cat":%q,"ph":"X","ts":%d,"dur":%d,"pid":%d,"tid":%d%s}`,
					s.Name, s.Cat, int64(s.Start), int64(end.Sub(s.Start)), pid, id, args))
				if s.Parent != 0 {
					if pi, ok := byID[s.Parent]; ok && spans[pi].Track != s.Track {
						p := spans[pi]
						ptid := tid(p.Track)
						emit(fmt.Sprintf(`{"name":%q,"cat":"flow","ph":"s","id":%d,"ts":%d,"pid":%d,"tid":%d}`,
							s.Name, uint64(s.ID), int64(p.Start), pid, ptid))
						emit(fmt.Sprintf(`{"name":%q,"cat":"flow","ph":"f","bp":"e","id":%d,"ts":%d,"pid":%d,"tid":%d}`,
							s.Name, uint64(s.ID), int64(s.Start), pid, id))
					}
				}
			}
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// chromeArgs renders a span's args object: the optional note plus the
// causal identity (hex trace/span/parent ids) when present.
func chromeArgs(s SpanRecord) string {
	if s.Note == "" && s.ID == 0 {
		return ""
	}
	out := `,"args":{`
	sep := ""
	if s.Note != "" {
		out += fmt.Sprintf(`"note":%q`, s.Note)
		sep = ","
	}
	if s.ID != 0 {
		out += fmt.Sprintf(`%s"trace":%q,"span":%q`, sep, s.Trace.String(), s.ID.String())
		if s.Parent != 0 {
			out += fmt.Sprintf(`,"parent":%q`, s.Parent.String())
		}
	}
	return out + "}"
}

// PhaseStat aggregates every span sharing (label, cat, name) across one
// TraceSet entry: how often the phase ran and how long it took.
type PhaseStat struct {
	Label string
	Cat   string
	Name  string
	Count int
	Total sim.Duration
	Max   sim.Duration
}

// Mean returns the average span length.
func (p PhaseStat) Mean() sim.Duration {
	if p.Count == 0 {
		return 0
	}
	return p.Total / sim.Duration(p.Count)
}

// PhaseStats folds the set's spans into per-(label, cat, name) rows.
// Instants are skipped. Row order is deterministic: labels in Add
// order, then (cat, name) in first-recording order within a label —
// which for lifecycle phases is chronological.
func (ts *TraceSet) PhaseStats() []PhaseStat {
	if ts == nil {
		return nil
	}
	var rows []PhaseStat
	index := map[[3]string]int{}
	for _, e := range ts.entries {
		for _, s := range e.tracer.spansRO() {
			if s.Instant {
				continue
			}
			key := [3]string{e.label, s.Cat, s.Name}
			i, ok := index[key]
			if !ok {
				i = len(rows)
				index[key] = i
				rows = append(rows, PhaseStat{Label: e.label, Cat: s.Cat, Name: s.Name})
			}
			d := s.Dur()
			rows[i].Count++
			rows[i].Total += d
			if d > rows[i].Max {
				rows[i].Max = d
			}
		}
	}
	return rows
}

// MergedMetrics sums every entry's counters into one snapshot.
// Deterministic because Snapshot sorts by name.
func (ts *TraceSet) MergedMetrics() Snapshot {
	if ts == nil {
		return Snapshot{}
	}
	merged := NewRegistry()
	for _, e := range ts.entries {
		reg := e.tracer.Metrics()
		if reg == nil {
			continue
		}
		for name, c := range reg.counters {
			merged.Counter(name).Add(c.v)
		}
	}
	return merged.Snapshot()
}
