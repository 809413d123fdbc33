package main

import (
	"strings"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		p    float64
		n    int
		want bool
	}{
		{99, 1000, true}, // rank 990: samples 991..1000 lie beyond
		{99, 999, false}, // rank 990: only 9 beyond
		{99.9, 10000, true},
		{99.9, 9999, false},
		{50, 21, true},
		{50, 20, true}, // rank 10: 10 beyond
		{50, 19, false},
		{99, 0, false},
	}
	for _, c := range cases {
		if got := reportable(c.p, c.n); got != c.want {
			t.Errorf("reportable(p%g, n=%d) = %v, want %v", c.p, c.n, got, c.want)
		}
	}
}

func TestNearestRankPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct {
		p            float64
		want         float64
		beyondWanted int
	}{
		{50, 50, 50}, {90, 90, 10}, {99, 99, 1}, {100, 100, 0}, {0, 1, 99},
	} {
		v, beyond := percentile(xs, c.p)
		if v != c.want || beyond != c.beyondWanted {
			t.Errorf("p%g = %v with %d beyond, want %v with %d", c.p, v, beyond, c.want, c.beyondWanted)
		}
	}
}

func TestSummaryReportsHighestQualifyingTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i) // unsorted input
	}
	s := summarize(xs)
	if s.N != 1000 || s.TailPct != 99 || s.Tail != 989 {
		t.Errorf("summary of 0..999 = %+v, want p99 = 989", s)
	}
	if s.P25 != 249 || s.P50 != 499 || s.P75 != 749 {
		t.Errorf("quartiles = %v %v %v", s.P25, s.P50, s.P75)
	}
	if small := summarize(xs[:15]); small.TailPct != 0 {
		t.Errorf("15 samples report a p%g tail", small.TailPct)
	}
}

// TestLatencyTailFollowsTheRule: the p99 slot carries p99 only with ten
// samples beyond it, else the highest percentile that has them, else the
// median.
func TestLatencyTailFollowsTheRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		v, pct float64
	}{
		{1000, 990, 99}, // p99 itself
		{100, 90, 90},   // p90: 10 beyond
		{28, 14, 50},    // p50: 14 beyond; p75 has only 7
		{8, 4, 50},      // no percentile qualifies: the median
	} {
		if v, pct := tail99(seq(c.n)); v != c.v || pct != c.pct {
			t.Errorf("n=%d: tail = p%g %v, want p%g %v", c.n, pct, v, c.pct, c.v)
		}
	}
}

// TestPassLatencyOutvotesOneDisturbedPass: the daemon's latency is the
// median over passes of each pass's percentiles, so one pass ten times
// slower moves neither slot, and a pass too small for p99 names the
// percentile it gives instead.
func TestPassLatencyOutvotesOneDisturbedPass(t *testing.T) {
	pass := func(n int, scale float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i+1) * scale
		}
		return xs
	}
	res := newResult()
	setPassLatency(res, "write", [][]float64{pass(1000, 1), pass(1000, 10), pass(1000, 1)}, "op")
	if p50, p99 := res.values["write_p50_ms"], res.values["write_p99_ms"]; p50 != 500 || p99 != 990 {
		t.Errorf("p50 = %v, p99 = %v; want 500 and 990", p50, p99)
	}
	setPassLatency(res, "read", [][]float64{pass(1000, 1), pass(200, 1), pass(1000, 1)}, "op")
	if d := res.details["read_p99_ms"]; !strings.Contains(d, "p90") {
		t.Errorf("detail %q does not name p90", d)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median = %v", m)
	}
}
