package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"vmgrid/internal/obs"
	"vmgrid/internal/sim"
)

// table2Trace runs a reduced Table 2 with tracing on and returns the
// trace set plus its Chrome emission.
func table2Trace(t *testing.T, workers int) (*obs.TraceSet, []byte) {
	t.Helper()
	ts := obs.NewTraceSet()
	cfg := Table2Config{Seed: 7, Samples: 2, Workers: workers, Trace: ts}
	if _, err := Table2(cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ts.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return ts, buf.Bytes()
}

// TestTable2TraceDeterministicAcrossWorkers is the headline determinism
// guarantee: the trace bytes are a pure function of the seed, not of the
// fan-out schedule.
func TestTable2TraceDeterministicAcrossWorkers(t *testing.T) {
	_, one := table2Trace(t, 1)
	_, eight := table2Trace(t, 8)
	if !bytes.Equal(one, eight) {
		t.Fatalf("table2 trace differs between workers=1 (%d bytes) and workers=8 (%d bytes)", len(one), len(eight))
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(one, &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
}

func TestFig1TraceDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []byte {
		ts := obs.NewTraceSet()
		cfg := Fig1Config{Seed: 3, Samples: 3, Workers: workers, Trace: ts}
		if _, err := Figure1(cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ts.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(1), run(8)) {
		t.Fatal("fig1 trace differs across worker counts")
	}
}

// TestPhaseSpansPartitionStartup checks the decomposition invariant the
// phase table relies on: per sample, the five phase spans sum exactly
// (integer microseconds) to the submitted->ready wall clock read off the
// lifecycle instants.
func TestPhaseSpansPartitionStartup(t *testing.T) {
	ts, _ := table2Trace(t, 0)
	if ts.Len() != 12 { // 6 cells x 2 samples
		t.Fatalf("trace set has %d entries, want 12", ts.Len())
	}
	checked := 0
	// Each label is one sample: sum its "phase" rows and compare against
	// the lifecycle instants recorded by the same tracer.
	type bounds struct {
		sum              sim.Duration
		submitted, ready sim.Time
		hasSub, hasReady bool
		phases           int
		label            string
	}
	perLabel := map[string]*bounds{}
	var order []string
	for _, p := range ts.PhaseStats() {
		if p.Cat != "phase" {
			continue
		}
		b := perLabel[p.Label]
		if b == nil {
			b = &bounds{label: p.Label}
			perLabel[p.Label] = b
			order = append(order, p.Label)
		}
		b.sum += p.Total
		b.phases += p.Count
	}
	// Lifecycle instants carry the absolute submitted/ready times.
	for _, sp := range allSpans(ts) {
		b := perLabel[sp.label]
		if b == nil || sp.rec.Cat != "lifecycle" {
			continue
		}
		switch sp.rec.Name {
		case "submitted":
			b.submitted, b.hasSub = sp.rec.Start, true
		case "ready":
			b.ready, b.hasReady = sp.rec.Start, true
		}
	}
	for _, label := range order {
		b := perLabel[label]
		if !b.hasSub || !b.hasReady {
			t.Errorf("%s: missing lifecycle instants", label)
			continue
		}
		if b.phases != 5 {
			t.Errorf("%s: %d phase spans, want 5", label, b.phases)
		}
		wall := b.ready.Sub(b.submitted)
		if b.sum != wall {
			t.Errorf("%s: phase sum %d us != wall clock %d us", label, int64(b.sum), int64(wall))
		}
		checked++
	}
	if checked != 12 {
		t.Errorf("validated %d samples, want 12", checked)
	}
}

// labeledSpan pairs a span with the trace-set label it came from.
type labeledSpan struct {
	label string
	rec   obs.SpanRecord
}

// allSpans flattens a TraceSet back into labeled spans by re-deriving
// the entry list from PhaseStats label order and the tracers' own data.
func allSpans(ts *obs.TraceSet) []labeledSpan {
	var out []labeledSpan
	for _, e := range ts.Entries() {
		for _, rec := range e.Tracer.Spans() {
			out = append(out, labeledSpan{label: e.Label, rec: rec})
		}
	}
	return out
}
