package rps

import (
	"encoding/binary"
	"math"
	"testing"

	"vmgrid/internal/sim"
	"vmgrid/internal/trace"
)

// refAR is the AR fit as it stood before Train centred the history once
// into reused buffers: every lag re-centres both samples in its own pass,
// and each call allocates its autocorrelation, coefficient and scratch
// slices. The equivalence test and FuzzARTrain pin Train to it bit for
// bit. Its products are rounded before they are added, as Train's are,
// so it means the same on architectures that have a fused multiply-add.
type refAR struct {
	order  int
	r      []float64 // the autocorrelations of the last fit
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
			r[lag] += float64((history[i] - mean) * (history[i-lag] - mean))
		}
		r[lag] /= float64(n)
	}
	p.r = r
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
			acc += float64(a[j] * r[k-j])
		}
		lambda := (r[k] - acc) / e
		copy(next, a)
		for j := 1; j < k; j++ {
			next[j] = a[j] - float64(lambda*a[k-j])
		}
		next[k] = lambda
		copy(a, next)
		e *= 1 - float64(lambda*lambda)
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
		pred += float64(p.coeffs[j] * (p.recent[len(p.recent)-1-j] - p.mean))
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

// TestARTrainZeroAllocs guards the refits the monitor runs every tick.
// A fresh model on a filling window, trained on every length from 32 to
// 512 samples as the monitor's history grows, grows its buffers only a
// few times; once they have grown, Train allocates nothing — for a live
// signal and for an idle node's constant one.
func TestARTrainZeroAllocs(t *testing.T) {
	load := trace.Synthetic(trace.Heavy, sim.NewRNG(11), 512).Loads
	idle := make([]float64, 512)
	fresh := make([]*AR, 2) // AllocsPerRun's warm-up call takes one
	for i := range fresh {
		p, err := NewAR(8)
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = p
	}
	filling := testing.AllocsPerRun(1, func() {
		p := fresh[0]
		fresh = fresh[1:]
		for n := 32; n <= len(load); n++ {
			if err := p.Train(load[:n]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if filling > 8 {
		t.Errorf("a fresh AR trained on lengths 32..512 allocates %v times, want ≤ 8", filling)
	}

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

// TestARTrainLeavesHistoryUnchanged: the monitor trains on a series'
// live window, so Train must only read its input.
func TestARTrainLeavesHistoryUnchanged(t *testing.T) {
	load := trace.Synthetic(trace.Heavy, sim.NewRNG(11), 700).Loads
	s, err := NewSeries(512)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range load {
		s.Add(v)
	}
	for _, order := range []int{2, 8} {
		p, err := NewAR(order)
		if err != nil {
			t.Fatal(err)
		}
		before := s.Values()
		if err := p.Train(s.Window()); err != nil {
			t.Fatal(err)
		}
		after := s.Values()
		for i := range before {
			if math.Float64bits(after[i]) != math.Float64bits(before[i]) {
				t.Fatalf("AR(%d): Train changed sample %d of its history: %v, was %v", order, i, after[i], before[i])
			}
		}
	}
}

// FuzzARTrain checks the AR(8) fit the monitor runs against refAR bit
// for bit — mean, autocorrelations, coefficients and a run of
// predictions — and the raw lag sums of autocorr against the portable
// loop, on histories of 17 to 1024 samples, eight little-endian bytes
// each. NaN samples are outside the contract: which NaN a product of two
// NaNs carries depends on operand order, which IEEE leaves open. The
// seed corpus, run by every go test, holds every length the monitor
// trains on (32 to 512, as its window fills) of a load shaped like
// hostos.LoadAverage's, constant loads, signed zeros, subnormals, 1e±300
// and synthetic heavy host load.
func FuzzARTrain(f *testing.F) {
	rng := sim.NewRNG(29)
	steps := make([]float64, 512)
	for i := 0; i < len(steps); {
		// Integer CPU demands plus a few 0.01 idle ticks, held for a
		// random stretch: the piecewise-constant load the sensor sees.
		v := float64(rng.Intn(4)) + 0.01*float64(rng.Intn(3))
		for run := 1 + rng.Intn(40); run > 0 && i < len(steps); run-- {
			steps[i] = v
			i++
		}
	}
	for n := 32; n <= len(steps); n++ {
		f.Add(encodeHistory(steps[:n]))
	}
	heavy := trace.Synthetic(trace.Heavy, sim.NewRNG(11), 1024).Loads
	for _, n := range []int{17, 100, 512, 1024} {
		f.Add(encodeHistory(heavy[:n]))
	}
	f.Add(encodeHistory(heavy[300:812]))
	fill := func(n int, v func(i int) float64) {
		out := make([]float64, n)
		for i := range out {
			out[i] = v(i)
		}
		f.Add(encodeHistory(out))
	}
	for _, c := range []float64{0, 1, 2.01, 0.01} {
		fill(17, func(int) float64 { return c })
		fill(512, func(int) float64 { return c })
	}
	negZero := math.Copysign(0, -1)
	fill(64, func(i int) float64 { return []float64{0, negZero}[i%2] })
	fill(64, func(i int) float64 { return []float64{negZero, negZero, 1, negZero}[i%4] })
	fill(17, func(int) float64 { return negZero })
	fill(128, func(i int) float64 { return math.SmallestNonzeroFloat64 * float64(i%7) })
	fill(200, func(i int) float64 { return 0x1p-1030 * rng.Normal(1, 0.5) })
	fill(33, func(i int) float64 { return []float64{math.SmallestNonzeroFloat64, 0}[i%2] })
	fill(512, func(i int) float64 { return 1e300 * rng.Normal(1, 0.3) })
	fill(512, func(i int) float64 { return 1e-300 * rng.Normal(1, 0.3) })
	fill(64, func(i int) float64 { return []float64{1e300, -1e300, 1e-300}[i%3] })
	fill(40, func(i int) float64 { return math.MaxFloat64 })

	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 8
		if n < 17 || n > 1024 {
			return
		}
		hist := make([]float64, n)
		for i := range hist {
			hist[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			if math.IsNaN(hist[i]) {
				return
			}
		}
		got, err := NewAR(8)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Train(hist); err != nil {
			t.Fatal(err)
		}
		want := &refAR{order: 8}
		want.Train(hist)
		same := func(what string, g, w []float64) {
			t.Helper()
			for i := range w {
				if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
					t.Fatalf("n=%d: %s = %v, want %v", n, what, g, w)
				}
			}
		}
		same("mean", []float64{got.mean}, []float64{want.mean})
		same("r", got.r, want.r)
		same("coeffs", got.coeffs, want.coeffs)
		kernel, portable := make([]float64, 9), make([]float64, 9)
		autocorr(got.dev[:n], kernel)
		autocorrPortable(got.dev[:n], portable)
		same("lag sums", kernel, portable)
		for step := 0; step < 3; step++ {
			same("Predict", []float64{got.Predict()}, []float64{want.Predict()})
			got.Observe(hist[step])
			want.Observe(hist[step])
		}
	})
}

// encodeHistory is FuzzARTrain's input format: each sample's bits,
// little-endian.
func encodeHistory(hist []float64) []byte {
	out := make([]byte, 8*len(hist))
	for i, v := range hist {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
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
