package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// buildTree records a small causal tree (root -> rpc -> handler) and
// returns every id in allocation order, for comparing tracers.
func buildTree(tr *Tracer, clk *fakeClock) []uint64 {
	root := tr.BeginTrace("sess", "session", "lifecycle")
	clk.now += 10
	rpc := tr.BeginChild(root.Context(), "gram", "rpc", "submit")
	clk.now += 5
	h := tr.BeginChild(rpc.Context(), "gram", "server", "gatekeeper")
	clk.now += 20
	h.End()
	rpc.End()
	clk.now += 5
	root.End()
	var ids []uint64
	for _, s := range tr.Spans() {
		ids = append(ids, uint64(s.Trace), uint64(s.ID), uint64(s.Parent))
	}
	return ids
}

// TestSeededIDsDeterministic is the id-allocation contract behind the
// -parallel byte-identity guarantee: ids are a pure function of (seed,
// recording order), so two tracers with the same seed produce the same
// ids and differently-seeded tracers diverge.
func TestSeededIDsDeterministic(t *testing.T) {
	run := func(seed uint64) []uint64 {
		clk := &fakeClock{}
		tr := New(clk)
		tr.SeedIDs(seed)
		return buildTree(tr, clk)
	}
	a, b := run(42), run(42)
	if len(a) == 0 || fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed produced different ids:\n%v\n%v", a, b)
	}
	if fmt.Sprint(run(42)) == fmt.Sprint(run(43)) {
		t.Fatal("different seeds produced identical ids")
	}
	// Reseeding after the first allocation must be a no-op: ids handed
	// out before the reseed would otherwise collide with later ones.
	clk := &fakeClock{}
	tr := New(clk)
	tr.SeedIDs(7)
	root := tr.BeginTrace("a", "b", "c")
	tr.SeedIDs(99)
	child := tr.BeginChild(root.Context(), "a", "b", "d")
	child.End()
	root.End()
	if fmt.Sprint(buildIDs(tr)) != fmt.Sprint(func() []uint64 {
		clk := &fakeClock{}
		tr := New(clk)
		tr.SeedIDs(7)
		root := tr.BeginTrace("a", "b", "c")
		child := tr.BeginChild(root.Context(), "a", "b", "d")
		child.End()
		root.End()
		return buildIDs(tr)
	}()) {
		t.Fatal("SeedIDs after first allocation changed the id stream")
	}
}

func buildIDs(tr *Tracer) []uint64 {
	var ids []uint64
	for _, s := range tr.Spans() {
		ids = append(ids, uint64(s.Trace), uint64(s.ID), uint64(s.Parent))
	}
	return ids
}

// TestSpansReturnsCopy is the aliasing regression test: the slice Spans
// hands out must be the caller's own — mutating it, or recording more
// spans afterwards, must not corrupt either side. (The pre-causality
// implementation returned the live backing array.)
func TestSpansReturnsCopy(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk)
	tr.SpanAt("a", "phase", "one", 0, 10)
	got := tr.Spans()
	got[0].Name = "mutated"
	if tr.Spans()[0].Name != "one" {
		t.Fatal("mutating the returned slice corrupted the tracer's history")
	}
	// Appending more spans must not grow into the caller's copy.
	first := tr.Spans()
	for i := 0; i < 32; i++ {
		tr.SpanAt("a", "phase", "later", 10, 20)
	}
	if first[0].Name != "one" || len(first) != 1 {
		t.Fatalf("later recording mutated an earlier snapshot: %+v", first)
	}
}

func TestFlightRecorderRingBounds(t *testing.T) {
	clk := &fakeClock{}
	rec := NewFlightRecorder(clk)
	tr := New(clk)
	tr.SetFlightRecorder(rec)
	const n = flightSpanCap + 6
	for i := 0; i < n; i++ {
		clk.now++
		tr.Instant("a", "evt", fmt.Sprintf("e%d", i))
	}
	snap := rec.Snapshot()
	if len(snap) != flightSpanCap {
		t.Fatalf("ring holds %d spans, want %d", len(snap), flightSpanCap)
	}
	// Oldest-first: the survivors are e6..e(n-1).
	for i, s := range snap {
		if want := fmt.Sprintf("e%d", 6+i); s.Name != want {
			t.Errorf("ring[%d] = %s, want %s", i, s.Name, want)
		}
	}
	if rec.SpansSeen() != n {
		t.Errorf("SpansSeen = %d, want %d", rec.SpansSeen(), n)
	}
}

func TestIncidentOpenSealLifecycle(t *testing.T) {
	clk := &fakeClock{}
	rec := NewFlightRecorder(clk)
	tr := New(clk)
	tr.SeedIDs(1)
	tr.SetFlightRecorder(rec)

	root := tr.BeginTrace("sess", "supervisor", "failover")
	id := rec.Open("recovery", "sess", root.Context())
	if id == "" {
		t.Fatal("Open returned no incident id")
	}
	inc := rec.Incident(id)
	if inc == nil || inc.Sealed() {
		t.Fatalf("open incident missing or already sealed: %+v", inc)
	}
	// A child of the trace completes: captured. An unrelated flat span:
	// not captured.
	clk.now = 100
	child := tr.BeginChild(root.Context(), "sess", "supervisor", "restore")
	clk.now = 400
	child.End()
	tr.SpanAt("other", "phase", "noise", 0, 50)
	if len(inc.Causal) != 1 || inc.Causal[0].Name != "restore" {
		t.Fatalf("causal capture = %+v, want the restore span only", inc.Causal)
	}
	// Root ends: the incident seals itself and computes its postmortem.
	clk.now = 500
	root.End()
	if !inc.Sealed() || inc.SealedAt != 500 {
		t.Fatalf("incident not sealed at root end: sealedAt=%d", inc.SealedAt)
	}
	if inc.Report == nil || !inc.Report.CriticalPathNames("supervisor", "restore") {
		t.Fatalf("postmortem missing or critical path lacks restore: %+v", inc.Report)
	}

	// FreezeNow seals immediately, without causal capture or report.
	fid := rec.FreezeNow("alert:slowdown", "sess-x")
	finc := rec.Incident(fid)
	if finc == nil || !finc.Sealed() || finc.Report != nil {
		t.Fatalf("FreezeNow incident wrong shape: %+v", finc)
	}

	// Incident ids are deterministic: sequence + trigger slug.
	if inc.ID != "inc-001-recovery" || finc.ID != "inc-002-alert-slowdown" {
		t.Errorf("incident ids = %q, %q", inc.ID, finc.ID)
	}
}

func TestIncidentBudget(t *testing.T) {
	clk := &fakeClock{}
	rec := NewFlightRecorder(clk)
	for i := 0; i < flightMaxIncidents; i++ {
		if rec.FreezeNow("a", fmt.Sprint(i)) == "" {
			t.Fatalf("incident %d of %d rejected", i+1, flightMaxIncidents)
		}
	}
	if got := rec.FreezeNow("c", "z"); got != "" {
		t.Fatalf("over-budget incident accepted: %q", got)
	}
	if rec.Dropped() != 1 || len(rec.Incidents()) != flightMaxIncidents {
		t.Fatalf("dropped=%d incidents=%d, want 1/%d", rec.Dropped(), len(rec.Incidents()), flightMaxIncidents)
	}
}

// TestIncidentSealsAtCausalCap: an incident whose root never ends
// stops capturing at flightMaxCausal spans — it seals early, postmortem
// included, instead of growing without bound.
func TestIncidentSealsAtCausalCap(t *testing.T) {
	clk := &fakeClock{}
	rec := NewFlightRecorder(clk)
	tr := NewFlightOnly(clk)
	tr.SeedIDs(1)
	tr.SetFlightRecorder(rec)
	root := tr.BeginTrace("sess", "supervisor", "failover")
	inc := rec.Incident(rec.Open("recovery", "sess", root.Context()))
	if inc == nil {
		t.Fatal("Open returned no incident")
	}
	for i := 0; i < flightMaxCausal; i++ {
		if inc.Sealed() {
			t.Fatalf("incident sealed after %d of %d causal spans", i, flightMaxCausal)
		}
		clk.now++
		child := tr.BeginChild(root.Context(), "sess", "vmm", "restore")
		clk.now++
		child.End()
	}
	if !inc.Sealed() || inc.SealedAt != clk.now {
		t.Fatalf("incident not sealed at the causal cap: sealedAt=%d now=%d", inc.SealedAt, clk.now)
	}
	if len(inc.Causal) != flightMaxCausal {
		t.Fatalf("causal capture = %d spans, want %d", len(inc.Causal), flightMaxCausal)
	}
	if inc.Report == nil || inc.Report.EndUs != inc.SealedAt || len(inc.Report.Critical) == 0 {
		t.Fatalf("early-sealed incident lacks a postmortem up to its seal: %+v", inc.Report)
	}
	// Sealed is final: later members of the trace and the root's own
	// end neither grow the capture nor seal a second time.
	child := tr.BeginChild(root.Context(), "sess", "vmm", "restore")
	child.End()
	root.End()
	if len(inc.Causal) != flightMaxCausal || len(rec.Incidents()) != 1 {
		t.Fatalf("after seal: causal=%d incidents=%d, want %d/1", len(inc.Causal), len(rec.Incidents()), flightMaxCausal)
	}
}

// TestFlightOnlyTracerBounded: in flight-only mode the tracer's own
// span table never grows past the number of concurrently open spans,
// and Spans() stays nil — history lives in the recorder's ring alone.
func TestFlightOnlyTracerBounded(t *testing.T) {
	clk := &fakeClock{}
	rec := NewFlightRecorder(clk)
	tr := NewFlightOnly(clk)
	tr.SeedIDs(3)
	tr.SetFlightRecorder(rec)
	for i := 0; i < 100; i++ {
		sp := tr.BeginTrace("s", "c", "n")
		clk.now++
		sp.End()
	}
	if len(tr.spans) != 1 {
		t.Fatalf("flight-only tracer retained %d slots, want 1 recycled slot", len(tr.spans))
	}
	if tr.Spans() != nil {
		t.Fatal("flight-only tracer returned span history")
	}
	if rec.SpansSeen() != 100 {
		t.Fatalf("recorder saw %d spans, want 100", rec.SpansSeen())
	}
}

// TestRecorderIndependenceUnderRace drives many tracer+recorder pairs
// concurrently, one pair per goroutine — the experiment fan-out shape.
// Under -race this proves the recorder shares no hidden state across
// simulations; determinism is checked by comparing each pair's bundle
// bytes to a serially-produced reference.
func TestRecorderIndependenceUnderRace(t *testing.T) {
	run := func(seed uint64) []byte {
		clk := &fakeClock{}
		rec := NewFlightRecorder(clk)
		tr := NewFlightOnly(clk)
		tr.SeedIDs(seed)
		tr.SetFlightRecorder(rec)
		root := tr.BeginTrace("sess", "supervisor", "failover")
		rec.Open("recovery", "sess", root.Context())
		for i := 0; i < 50; i++ {
			clk.now++
			child := tr.BeginChild(root.Context(), "sess", "vmm", "restore")
			clk.now++
			child.End()
		}
		root.End()
		b, err := json.Marshal(rec.Incidents())
		if err != nil {
			t.Error(err)
		}
		return b
	}
	want := make([][]byte, 8)
	for i := range want {
		want[i] = run(uint64(i + 1))
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if got := run(uint64(i + 1)); !bytes.Equal(got, want[i]) {
				t.Errorf("seed %d: concurrent run diverged from serial run", i+1)
			}
		}(i)
	}
	wg.Wait()
}

// BenchmarkFlightRecorder measures the three recording modes of the
// span hot path: disabled (nil tracer — the production default for
// experiments), flight-only with a recorder attached (the always-on
// vmgridd mode), and full retention. The nil case is the guard: it must
// stay within a few ns — one pointer test — so instrumented code is
// free when observability is off.
func BenchmarkFlightRecorder(b *testing.B) {
	b.Run("tracer-nil", func(b *testing.B) {
		var tr *Tracer
		var ctx SpanContext
		for i := 0; i < b.N; i++ {
			sp := tr.BeginChild(ctx, "s", "c", "n")
			sp.End()
		}
	})
	b.Run("flight-only", func(b *testing.B) {
		clk := &fakeClock{}
		rec := NewFlightRecorder(clk)
		tr := NewFlightOnly(clk)
		tr.SeedIDs(1)
		tr.SetFlightRecorder(rec)
		root := tr.BeginTrace("s", "c", "root")
		ctx := root.Context()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sp := tr.BeginChild(ctx, "s", "c", "n")
			sp.End()
		}
	})
	b.Run("retained", func(b *testing.B) {
		clk := &fakeClock{}
		tr := New(clk)
		tr.SeedIDs(1)
		root := tr.BeginTrace("s", "c", "root")
		ctx := root.Context()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sp := tr.BeginChild(ctx, "s", "c", "n")
			sp.End()
		}
	})
}
