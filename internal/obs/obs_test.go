package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"vmgrid/internal/sim"
)

// fakeClock is a manually advanced Clock.
type fakeClock struct{ now sim.Time }

func (c *fakeClock) Now() sim.Time { return c.now }

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	sp := tr.Begin("a", "b", "c")
	sp.Note("ignored")
	sp.End()
	sp.EndErr(nil)
	tr.Instant("a", "b", "c")
	tr.SpanAt("a", "b", "c", 0, 1)
	if tr.Spans() != nil {
		t.Fatal("nil tracer returned spans")
	}
	reg := tr.Metrics()
	reg.Counter("x").Inc()
	if got := reg.Counter("x").Value(); got != 0 {
		t.Fatalf("nil counter value = %v", got)
	}
	snap := reg.Snapshot()
	if len(snap.Counters) != 0 || reg.Len() != 0 || reg.Names() != nil {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestSpansAndInstants(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk)
	sp := tr.Begin("sess", "phase", "stage")
	clk.now = 250
	sp.End()
	tr.Instant("sess", "lifecycle", "ready")
	tr.SpanAt("sess", "phase", "connect", 250, 400)

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Dur() != 250 || spans[0].Name != "stage" {
		t.Errorf("span 0 = %+v", spans[0])
	}
	if !spans[1].Instant || spans[1].Start != 250 {
		t.Errorf("instant = %+v", spans[1])
	}
	if spans[2].Dur() != 150 {
		t.Errorf("SpanAt dur = %v", spans[2].Dur())
	}
}

func TestRegistrySnapshotSortedAndAggregated(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b.count").Add(2)
	reg.Counter("a.count").Inc()
	reg.Counter("b.count").Inc()

	s := reg.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a.count" || s.Counters[1].Value != 3 {
		t.Errorf("counters = %+v", s.Counters)
	}
	if names := reg.Names(); len(names) != 2 || names[0] != "a.count" || names[1] != "b.count" || reg.Len() != 2 {
		t.Errorf("names = %v, len = %d", names, reg.Len())
	}
}

func TestWriteChromeValidJSON(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk)
	sp := tr.Begin("s0", "phase", "stage")
	clk.now = 1000
	sp.EndErr(nil)
	tr.Instant("s0", "lifecycle", "ready")
	open := tr.Begin("s0", "rpc", "never-closed")
	_ = open

	ts := NewTraceSet()
	ts.Add("cell-a", tr)
	var buf bytes.Buffer
	if err := ts.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	// 2 metadata (process_name, thread_name) + 3 events.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d events, want 5:\n%s", len(doc.TraceEvents), buf.String())
	}
	if doc.TraceEvents[0]["ph"] != "M" {
		t.Errorf("first event not metadata: %v", doc.TraceEvents[0])
	}
	var phX, phI int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			phX++
		case "i":
			phI++
		}
	}
	if phX != 2 || phI != 1 {
		t.Errorf("got %d complete + %d instant events, want 2 + 1", phX, phI)
	}
	if !strings.Contains(buf.String(), `"name":"cell-a"`) {
		t.Error("process label missing from output")
	}
}

func TestWriteChromeDeterministicBytes(t *testing.T) {
	build := func() []byte {
		clk := &fakeClock{}
		tr := New(clk)
		for i := 0; i < 5; i++ {
			sp := tr.Begin("track", "cat", "work")
			clk.now += 100
			sp.End()
		}
		ts := NewTraceSet()
		ts.Add("label", tr)
		var buf bytes.Buffer
		if err := ts.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("identical trace sets produced different bytes")
	}
}

func TestPhaseStats(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk)
	tr.SpanAt("s", "phase", "stage", 0, 100)
	tr.SpanAt("s", "phase", "boot", 100, 400)
	tr.SpanAt("s", "phase", "stage", 400, 600)
	tr.Instant("s", "lifecycle", "ready")

	ts := NewTraceSet()
	ts.Add("cell", tr)
	stats := ts.PhaseStats()
	if len(stats) != 2 {
		t.Fatalf("got %d rows, want 2: %+v", len(stats), stats)
	}
	if stats[0].Name != "stage" || stats[0].Count != 2 || stats[0].Total != 300 || stats[0].Max != 200 {
		t.Errorf("stage row = %+v", stats[0])
	}
	if stats[0].Mean() != 150 {
		t.Errorf("stage mean = %v", stats[0].Mean())
	}
	if stats[1].Name != "boot" || stats[1].Total != 300 {
		t.Errorf("boot row = %+v", stats[1])
	}
}

func TestMergedMetrics(t *testing.T) {
	mk := func(n float64) *Tracer {
		tr := New(&fakeClock{})
		tr.Metrics().Counter("ops").Add(n)
		return tr
	}
	ts := NewTraceSet()
	ts.Add("a", mk(2))
	ts.Add("b", mk(3))
	s := ts.MergedMetrics()
	if len(s.Counters) != 1 || s.Counters[0].Value != 5 {
		t.Errorf("merged counters = %+v", s.Counters)
	}
}
