package rps

import (
	"math"
	"testing"

	"vmgrid/internal/sim"
	"vmgrid/internal/trace"
)

// refAR is the AR fit as it stood before Train centred the history once
// into reused buffers: every lag re-centres both samples, and each call
// allocates its autocorrelation, coefficient and scratch slices. The
// equivalence test pins the reused-buffer Train to it bit for bit.
type refAR struct {
	order  int
	coeffs []float64
	mean   float64
	recent []float64
}

func (p *refAR) Train(history []float64) {
	n := len(history)
	var mean float64
	for _, v := range history {
		mean += v
	}
	mean /= float64(n)

	r := make([]float64, p.order+1)
	for lag := 0; lag <= p.order; lag++ {
		for i := lag; i < n; i++ {
			r[lag] += (history[i] - mean) * (history[i-lag] - mean)
		}
		r[lag] /= float64(n)
	}
	if r[0] <= 1e-12 {
		p.coeffs = make([]float64, p.order)
		p.mean = mean
		p.recent = append(p.recent[:0], history[n-p.order:]...)
		return
	}

	a := make([]float64, p.order+1)
	next := make([]float64, p.order+1)
	e := r[0]
	for k := 1; k <= p.order; k++ {
		var acc float64
		for j := 1; j < k; j++ {
			acc += a[j] * r[k-j]
		}
		lambda := (r[k] - acc) / e
		copy(next, a)
		for j := 1; j < k; j++ {
			next[j] = a[j] - lambda*a[k-j]
		}
		next[k] = lambda
		copy(a, next)
		e *= 1 - lambda*lambda
		if e <= 0 {
			e = 1e-12
		}
	}
	p.coeffs = a[1:]
	p.mean = mean
	p.recent = append(p.recent[:0], history[n-p.order:]...)
}

func (p *refAR) Predict() float64 {
	pred := p.mean
	for j := 0; j < p.order; j++ {
		pred += p.coeffs[j] * (p.recent[len(p.recent)-1-j] - p.mean)
	}
	return pred
}

func (p *refAR) Observe(v float64) {
	p.recent = append(p.recent, v)
	if len(p.recent) > p.order {
		p.recent = p.recent[1:]
	}
}

// TestARTrainMatchesReference trains one model per order on a sequence
// of histories — random, host-load-shaped, constant, minimum length,
// and back again, so reused buffers carry state from longer and
// non-constant fits into shorter and constant ones — and requires the
// coefficients, mean and a run of predictions to equal the reference
// bit for bit.
func TestARTrainMatchesReference(t *testing.T) {
	rng := sim.NewRNG(3)
	random := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = rng.Normal(1, 0.7)
		}
		return out
	}
	constant := func(n int, v float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	load := trace.Synthetic(trace.Heavy, sim.NewRNG(11), 600).Loads
	for _, order := range []int{1, 2, 8} {
		minLen := 2*order + 1
		histories := [][]float64{
			random(512),
			load[:512],
			constant(512, 0),
			random(minLen),
			constant(minLen, 2.5),
			load[88:600],
			constant(40, 1e-9),
			random(100),
			random(minLen + 1),
		}
		got, err := NewAR(order)
		if err != nil {
			t.Fatal(err)
		}
		want := &refAR{order: order}
		for h, hist := range histories {
			if err := got.Train(hist); err != nil {
				t.Fatalf("AR(%d) history %d: %v", order, h, err)
			}
			want.Train(hist)
			if math.Float64bits(got.mean) != math.Float64bits(want.mean) {
				t.Fatalf("AR(%d) history %d: mean %v, want %v", order, h, got.mean, want.mean)
			}
			for j := range want.coeffs {
				if math.Float64bits(got.coeffs[j]) != math.Float64bits(want.coeffs[j]) {
					t.Fatalf("AR(%d) history %d: coeffs %v, want %v", order, h, got.coeffs, want.coeffs)
				}
			}
			for step := 0; step < 5; step++ {
				g, w := got.Predict(), want.Predict()
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("AR(%d) history %d step %d: Predict %v, want %v", order, h, step, g, w)
				}
				v := rng.Normal(1, 0.5)
				got.Observe(v)
				want.Observe(v)
			}
		}
	}
}

// TestARTrainZeroAllocs guards the steady-state refit the monitor runs
// every tick: once the buffers have grown, Train allocates nothing —
// for a live signal and for an idle node's constant one.
func TestARTrainZeroAllocs(t *testing.T) {
	load := trace.Synthetic(trace.Heavy, sim.NewRNG(11), 512).Loads
	idle := make([]float64, 512)
	p, err := NewAR(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, hist := range [][]float64{load, idle} {
		if err := p.Train(hist); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = p.Train(hist) }); allocs != 0 {
			t.Errorf("Train allocates %v times per call in steady state, want 0", allocs)
		}
	}
}

// BenchmarkARTrain is the monitor's per-tick refit: AR(8) over a full
// 512-sample history.
func BenchmarkARTrain(b *testing.B) {
	hist := trace.Synthetic(trace.Heavy, sim.NewRNG(11), 512).Loads
	p, err := NewAR(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Train(hist); err != nil {
			b.Fatal(err)
		}
	}
}
