package wire

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"vmgrid/internal/core"
	"vmgrid/internal/retry"
)

func TestErrorCodeTable(t *testing.T) {
	cases := []struct {
		err  error
		code string
	}{
		{fmt.Errorf("op: %w", core.ErrBadSession), CodeBadSession},
		{fmt.Errorf("op: %w", core.ErrNoFuture), CodeNoFuture},
		{fmt.Errorf("op: %w", core.ErrNoImage), CodeNoImage},
		{fmt.Errorf("op: %w", core.ErrUnknownNode), CodeUnknownNode},
		{fmt.Errorf("%w %q", ErrUnknownSession, "x"), CodeUnknownSession},
		{errors.New("something else"), ""},
	}
	for _, tc := range cases {
		if got := ErrorCode(tc.err); got != tc.code {
			t.Errorf("ErrorCode(%v) = %q, want %q", tc.err, got, tc.code)
		}
	}
	for _, e := range codeTable {
		back := sentinelFor(e.code)
		if back != e.err {
			t.Errorf("sentinelFor(%q) did not invert", e.code)
		}
	}
}

// TestTypedErrorRoundTrip drives a live TCP server and checks that
// sentinel errors survive the JSON protocol: errors.Is matches on the
// client side exactly as it would against the grid in process.
func TestTypedErrorRoundTrip(t *testing.T) {
	c := startServer(t)

	// Session lookup misses carry the wire-level sentinel.
	if _, err := c.Usage("ghost"); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("usage of unknown session = %v, want ErrUnknownSession", err)
	}

	buildFabric(t, c)
	info, err := c.NewSession(SessionParams{
		User: "alice", FrontEnd: "front", Image: "rh72",
		Mode: "restore", Disk: "non-persistent", Access: "local",
	})
	if err != nil {
		t.Fatal(err)
	}

	// Migrating to a node that does not exist maps to core.ErrUnknownNode.
	if _, err := c.Migrate(info.Name, "nowhere"); !errors.Is(err, core.ErrUnknownNode) {
		t.Errorf("migrate to unknown node = %v, want core.ErrUnknownNode", err)
	}

	// Hibernating twice trips the state machine: the second call must
	// come back as core.ErrBadSession after a full TCP round trip.
	if _, err := c.Hibernate(info.Name); err != nil {
		t.Fatal(err)
	}
	_, err = c.Hibernate(info.Name)
	if !errors.Is(err, core.ErrBadSession) {
		t.Errorf("double hibernate = %v, want core.ErrBadSession", err)
	}

	// The message text still reads like a server error.
	if err == nil || ErrorCode(err) != CodeBadSession {
		t.Errorf("round-tripped error lost its code: %v", err)
	}
}

// TestLocalTypedErrors checks the in-process client decodes through the
// same code table.
func TestLocalTypedErrors(t *testing.T) {
	srv := NewServer(7)
	l := NewLocal(srv)
	if _, err := l.Run(RunParams{Session: "ghost", Name: "x", CPUSeconds: 1}); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("local run on unknown session = %v, want ErrUnknownSession", err)
	}
}

// TestMetricsAndSpansOps checks the server's observability exposures:
// after a session starts, the metrics op reports its counters and the
// spans op returns the Figure-3 phase decomposition.
func TestMetricsAndSpansOps(t *testing.T) {
	c := startServer(t)
	buildFabric(t, c)
	if _, err := c.NewSession(SessionParams{
		User: "alice", FrontEnd: "front", Image: "rh72",
		Mode: "restore", Disk: "non-persistent", Access: "local",
	}); err != nil {
		t.Fatal(err)
	}

	snap, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, cp := range snap.Counters {
		if cp.Name == "core.sessions.ready" && cp.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("metrics snapshot missing core.sessions.ready: %+v", snap.Counters)
	}

	spans, err := c.Spans()
	if err != nil {
		t.Fatal(err)
	}
	phases := 0
	for _, sp := range spans {
		if sp.Cat == "phase" {
			phases++
		}
	}
	if phases != 5 {
		t.Errorf("phase spans = %d, want 5 (query/locate/stage/instantiate/connect)", phases)
	}
}

// TestTraceAndIncidentOps drives the causal-observability surface over
// TCP: trace returns the session's complete causal tree (one TraceID,
// phases and RPCs parented into it) plus a postmortem whose critical
// path partitions the startup, and the incident ops expose the flight
// recorder every served grid carries from birth.
func TestTraceAndIncidentOps(t *testing.T) {
	c := startServer(t)
	buildFabric(t, c)
	info, err := c.NewSession(SessionParams{
		User: "alice", FrontEnd: "front", Image: "rh72",
		Mode: "restore", Disk: "non-persistent", Access: "local",
	})
	if err != nil {
		t.Fatal(err)
	}

	tr, err := c.Trace(info.Name)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Session != info.Name || tr.Trace == "0000000000000000" {
		t.Fatalf("trace header = %+v", tr)
	}
	if len(tr.Spans) == 0 {
		t.Fatal("trace has no spans")
	}
	phases, foreign := 0, 0
	for _, sp := range tr.Spans {
		if sp.Trace.String() != tr.Trace {
			foreign++
		}
		if sp.Cat == "phase" {
			phases++
		}
	}
	if foreign != 0 || phases != 5 {
		t.Errorf("trace spans: %d foreign, %d phases (want 0, 5)", foreign, phases)
	}
	if tr.Report == nil {
		t.Fatal("trace has no postmortem report")
	}
	var sum float64
	for _, a := range tr.Report.Attribution {
		sum += a.Share
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("attribution shares sum to %.4f, want 1", sum)
	}

	// A healthy startup triggers nothing; the list op still answers.
	incs, err := c.Incidents()
	if err != nil {
		t.Fatal(err)
	}
	if len(incs) != 0 {
		t.Errorf("fresh grid has %d incidents, want 0", len(incs))
	}
	if _, err := c.Incident("inc-999-nope"); err == nil {
		t.Error("unknown incident id did not error")
	}
	if _, err := c.Trace("ghost"); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("trace of unknown session = %v, want ErrUnknownSession", err)
	}
}

// TestCallOptions exercises the per-client Config that governs every
// Call: an explicit CallTimeout and Retry on the success path, and a
// single-attempt Retry as a fast-fail probe against a dead server.
func TestCallOptions(t *testing.T) {
	c := startServer(t)
	live, err := DialConfig(c.addr, Config{CallTimeout: 10 * time.Second, Retry: retry.Policy{MaxAttempts: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	if err := live.Ping(); err != nil {
		t.Fatal(err)
	}

	dead, err := DialConfig(c.addr, Config{Retry: retry.Policy{MaxAttempts: 1}})
	if err != nil {
		t.Fatal(err)
	}
	_ = dead.Close()
	// Simulate a vanished server: point at a port nothing listens on.
	dead.addr = "127.0.0.1:1"
	start := time.Now()
	if err := dead.Ping(); err == nil {
		t.Error("ping of dead server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("single-attempt probe took %v, backoff not bypassed", elapsed)
	}
}
