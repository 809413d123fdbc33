package obs

import "testing"

// The nil-sink benchmarks guard the off-by-default contract: a disabled
// tracer must cost one pointer test per call site, so instrumented hot
// paths (vfs transact, session marks) stay benchmark-neutral when
// tracing is off. Compare against the enabled variants to see the
// recording cost that -trace opts into.

func BenchmarkNilTracerSpan(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Begin("track", "cat", "name")
		sp.End()
	}
}

func BenchmarkNilTracerInstant(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Instant("track", "cat", "name")
	}
}

func BenchmarkNilCounterInc(b *testing.B) {
	var tr *Tracer
	c := tr.Metrics().Counter("ops")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkEnabledSpan(b *testing.B) {
	clk := &fakeClock{}
	tr := New(clk)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clk.now++
		sp := tr.Begin("track", "cat", "name")
		sp.End()
	}
}

func BenchmarkEnabledCounterInc(b *testing.B) {
	tr := New(&fakeClock{})
	c := tr.Metrics().Counter("ops")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
