package vfs

import (
	"errors"
	"fmt"
	"testing"

	"vmgrid/internal/obs"
	"vmgrid/internal/retry"
	"vmgrid/internal/sim"
)

// scriptedTransport loses, NAKs, or serves RPC attempts per script:
// the first drops attempts never complete, the next naks attempts reply
// ErrUnknownFile, the next slow attempts succeed only after slowBy, and
// everything after succeeds after latency.
type scriptedTransport struct {
	k       *sim.Kernel
	drops   int
	naks    int
	slow    int
	slowBy  sim.Duration
	latency sim.Duration

	calls int
	times []sim.Time
}

func (t *scriptedTransport) issue(done func(error)) {
	t.calls++
	t.times = append(t.times, t.k.Now())
	switch {
	case t.calls <= t.drops:
		// Lost: no reply ever.
	case t.calls <= t.drops+t.naks:
		t.k.After(t.latency, func() { done(fmt.Errorf("%w: scripted", ErrUnknownFile)) })
	case t.calls <= t.drops+t.naks+t.slow:
		t.k.After(t.slowBy, func() { done(nil) })
	default:
		t.k.After(t.latency, func() { done(nil) })
	}
}

func (t *scriptedTransport) Read(file string, off, size int64, done func(error)) { t.issue(done) }
func (t *scriptedTransport) Write(file string, off, size int64, done func(error)) {
	t.issue(done)
}

func retryClient(t *testing.T, k *sim.Kernel, tr Transport, p retry.Policy) *Client {
	t.Helper()
	cfg := Config{Rsize: 32 << 10, Prefetch: 32 << 10, CacheBytes: 1 << 20, Retry: p}
	c, err := NewClient(k, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRetryRecoversFromLostRPCs(t *testing.T) {
	k := sim.NewKernel(1)
	tr := &scriptedTransport{k: k, drops: 2, latency: sim.Millisecond}
	c := retryClient(t, k, tr, retry.Policy{
		MaxAttempts: 4, Timeout: 100 * sim.Millisecond, Backoff: 10 * sim.Millisecond,
	})
	completed := false
	c.Open("data", 1<<20).Read(0, 1024, func() { completed = true })
	k.Run()
	if !completed {
		t.Fatal("read never completed despite retry budget")
	}
	if tr.calls != 3 {
		t.Errorf("attempts = %d, want 3 (2 lost + 1 served)", tr.calls)
	}
	if c.Retries() != 2 {
		t.Errorf("Retries() = %d, want 2", c.Retries())
	}
	if c.TransportErrors() != 0 {
		t.Errorf("TransportErrors() = %d; recovered RPCs must not count as data loss", c.TransportErrors())
	}
	// Reissues are spaced by timeout + doubling backoff.
	if len(tr.times) == 3 {
		gap1 := tr.times[1].Sub(tr.times[0])
		gap2 := tr.times[2].Sub(tr.times[1])
		if gap1 != 110*sim.Millisecond || gap2 != 120*sim.Millisecond {
			t.Errorf("attempt gaps = %v, %v; want timeout+10ms then timeout+20ms", gap1, gap2)
		}
	}
}

func TestRetryExhaustionReportsUnavailable(t *testing.T) {
	k := sim.NewKernel(1)
	tr := &scriptedTransport{k: k, drops: 1 << 30}
	c := retryClient(t, k, tr, retry.Policy{
		MaxAttempts: 3, Timeout: 50 * sim.Millisecond, Backoff: 10 * sim.Millisecond,
	})
	completed := false
	c.Open("data", 1<<20).Read(0, 1024, func() { completed = true })
	k.Run()
	// Soft-mount semantics: the read completes, the error is recorded.
	if !completed {
		t.Fatal("read hung instead of failing soft")
	}
	if tr.calls != 3 {
		t.Errorf("attempts = %d, want 3", tr.calls)
	}
	if c.TransportErrors() != 1 {
		t.Errorf("TransportErrors() = %d, want 1", c.TransportErrors())
	}
	if !errors.Is(c.LastError(), ErrUnavailable) {
		t.Errorf("LastError = %v, want ErrUnavailable wrap", c.LastError())
	}
	if !errors.Is(c.LastError(), ErrTimeout) {
		t.Errorf("LastError = %v, should keep the ErrTimeout cause", c.LastError())
	}
}

func TestRetryDoesNotReissueNAKs(t *testing.T) {
	k := sim.NewKernel(1)
	tr := &scriptedTransport{k: k, naks: 1, latency: sim.Millisecond}
	c := retryClient(t, k, tr, retry.Policy{
		MaxAttempts: 4, Timeout: 100 * sim.Millisecond, Backoff: 10 * sim.Millisecond,
	})
	completed := false
	c.Open("ghost", 1<<20).Read(0, 1024, func() { completed = true })
	k.Run()
	if !completed {
		t.Fatal("read never completed")
	}
	if tr.calls != 1 {
		t.Errorf("attempts = %d; a definitive server NAK must not be retried", tr.calls)
	}
	if c.Retries() != 0 {
		t.Errorf("Retries() = %d, want 0", c.Retries())
	}
	if !errors.Is(c.LastError(), ErrUnknownFile) {
		t.Errorf("LastError = %v, want ErrUnknownFile", c.LastError())
	}
}

func TestZeroRetryPolicyKeepsHistoricalBehavior(t *testing.T) {
	k := sim.NewKernel(1)
	tr := &scriptedTransport{k: k, drops: 1}
	c := retryClient(t, k, tr, retry.Policy{})
	completed := false
	c.Open("data", 1<<20).Read(0, 1024, func() { completed = true })
	_ = k.RunUntil(k.Now().Add(sim.Hour))
	if completed {
		t.Fatal("zero policy must not time out or retry: a lost RPC hangs")
	}
	if tr.calls != 1 {
		t.Errorf("attempts = %d, want exactly 1", tr.calls)
	}
}

func TestRetryPolicyValidation(t *testing.T) {
	k := sim.NewKernel(1)
	bad := Config{Rsize: 16, Prefetch: 16, Retry: retry.Policy{Timeout: -1}}
	if _, err := NewClient(k, nil, bad); err == nil {
		t.Error("negative retry timeout accepted")
	}
}

func TestWriteThroughRetries(t *testing.T) {
	k := sim.NewKernel(1)
	tr := &scriptedTransport{k: k, drops: 1, latency: sim.Millisecond}
	c := retryClient(t, k, tr, retry.Policy{
		MaxAttempts: 2, Timeout: 50 * sim.Millisecond, Backoff: 10 * sim.Millisecond,
	})
	completed := false
	c.Open("data", 1<<20).Write(0, 1024, func() { completed = true })
	k.Run()
	if !completed {
		t.Fatal("write never completed")
	}
	if tr.calls != 2 {
		t.Errorf("attempts = %d, want 2", tr.calls)
	}
	if c.TransportErrors() != 0 {
		t.Errorf("TransportErrors() = %d, want 0 after recovery", c.TransportErrors())
	}
}

// TestLateReplyAfterTimeoutIsDropped: attempt 1 replies only after
// twice the timeout, by when attempt 2 has completed the read and a
// second read has reused the pooled call. The stale reply must settle
// neither read, and each attempt gets one span.
func TestLateReplyAfterTimeoutIsDropped(t *testing.T) {
	k := sim.NewKernel(1)
	const timeout = 100 * sim.Millisecond
	tr := &scriptedTransport{k: k, slow: 1, slowBy: 2 * timeout, latency: 60 * sim.Millisecond}
	tracer := obs.New(k)
	c, err := NewClient(k, tr, Config{
		Rsize: 32 << 10, Prefetch: 32 << 10, CacheBytes: 1 << 20, Trace: tracer,
		Retry: retry.Policy{MaxAttempts: 3, Timeout: timeout, Backoff: 10 * sim.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := c.Open("data", 1<<30)
	var first, second []sim.Time
	f.Read(0, 1024, func() {
		first = append(first, k.Now())
		if c.Retries() != 1 || c.RemoteOps() != 1 {
			t.Errorf("first read done with Retries()=%d RemoteOps()=%d, want 1 and 1", c.Retries(), c.RemoteOps())
		}
		// Issued while attempt 1's reply is still in flight.
		f.Read(512<<10, 1024, func() { second = append(second, k.Now()) })
	})
	k.Run()
	// Attempt 1 at 0 times out at 100 ms; attempt 2 at 110 ms replies at
	// 170 ms; the second read's RPC at 170 ms replies at 230 ms. The
	// stale reply lands at 200 ms.
	if want := sim.Time(170 * sim.Millisecond); len(first) != 1 || first[0] != want {
		t.Errorf("first read completed at %v, want once at %v", first, want)
	}
	if want := sim.Time(230 * sim.Millisecond); len(second) != 1 || second[0] != want {
		t.Errorf("second read completed at %v, want once at %v", second, want)
	}
	if tr.calls != 3 || c.Retries() != 1 || c.RemoteOps() != 2 || c.TransportErrors() != 0 {
		t.Errorf("attempts=%d Retries()=%d RemoteOps()=%d TransportErrors()=%d, want 3, 1, 2, 0",
			tr.calls, c.Retries(), c.RemoteOps(), c.TransportErrors())
	}
	var spans []obs.SpanRecord
	for _, sp := range tracer.Spans() {
		if sp.Track == "vfs" && sp.Cat == "rpc" {
			spans = append(spans, sp)
		}
	}
	if len(spans) != 3 {
		t.Fatalf("%d vfs/rpc spans, want one per attempt (3): %+v", len(spans), spans)
	}
	if spans[0].End != sim.Time(timeout) || spans[0].Note == "" {
		t.Errorf("attempt 1 span %+v, want ended by the timeout at %v with its error", spans[0], timeout)
	}
}
