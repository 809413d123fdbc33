package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: below that, the tail value is one or two outliers.
const minBeyond = 10

// tailLadder lists the tail percentiles a summary may report, highest
// first; a summary reports the first one with minBeyond samples beyond.
var tailLadder = []float64{99.9, 99, 90, 75, 50}

// rankIndex returns the 0-based nearest-rank index of percentile p among
// n sorted samples.
func rankIndex(p float64, n int) int {
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r - 1
}

// percentile returns the nearest-rank percentile p of sorted and how
// many samples lie beyond it.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	i := rankIndex(p, len(sorted))
	return sorted[i], len(sorted) - 1 - i
}

// reportable reports whether percentile p of n samples has at least
// minBeyond samples beyond it.
func reportable(p float64, n int) bool {
	if n == 0 {
		return false
	}
	return n-1-rankIndex(p, n) >= minBeyond
}

// summary describes one sample set: quartiles, the highest tail
// percentile that has minBeyond samples beyond it (TailPct 0 when none
// does), and the count.
type summary struct {
	N             int
	P25, P50, P75 float64
	TailPct, Tail float64
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	out := summary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	out.P25, _ = percentile(s, 25)
	out.P50, _ = percentile(s, 50)
	out.P75, _ = percentile(s, 75)
	for _, p := range tailLadder {
		if reportable(p, len(s)) {
			out.TailPct = p
			out.Tail, _ = percentile(s, p)
			break
		}
	}
	return out
}

func (s summary) String() string {
	tail := "no tail percentile"
	if s.TailPct > 0 {
		tail = fmt.Sprintf("p%g=%.4g", s.TailPct, s.Tail)
	}
	return fmt.Sprintf("n=%d p25=%.4g p50=%.4g p75=%.4g %s", s.N, s.P25, s.P50, s.P75, tail)
}

// median is the midpoint of xs (the mean of the two middle values for an
// even count); 0 for an empty set.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
