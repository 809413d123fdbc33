package rps

import (
	"math"
	"testing"
	"testing/quick"

	"vmgrid/internal/sim"
	"vmgrid/internal/trace"
)

func TestSeriesRingBuffer(t *testing.T) {
	s, err := NewSeries(3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.Last() != 0 || s.Mean() != 0 {
		t.Error("empty series not zero-valued")
	}
	for i := 1; i <= 5; i++ {
		s.Add(float64(i))
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	vals := s.Values()
	want := []float64{3, 4, 5}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("Values = %v, want %v", vals, want)
		}
	}
	if s.Last() != 5 {
		t.Errorf("Last = %v", s.Last())
	}
	if s.Mean() != 4 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if s.Total() != 5 {
		t.Errorf("Total = %d, want 5 (keeps counting past capacity)", s.Total())
	}
	w := s.Window()
	if len(w) != 3 || cap(w) != 3 || w[0] != 3 || w[2] != 5 {
		t.Errorf("Window = %v (cap %d), want [3 4 5] capped at its length", w, cap(w))
	}
}

func TestSeriesValidation(t *testing.T) {
	if _, err := NewSeries(0); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestSensorSamples(t *testing.T) {
	k := sim.NewKernel(1)
	val := 1.0
	sensor, err := NewSensor(k, sim.Second, 100, func() float64 { return val })
	if err != nil {
		t.Fatal(err)
	}
	sensor.Start()
	sensor.Start() // idempotent
	k.At(sim.Time(2500*sim.Millisecond), func() { val = 9 })
	_ = k.RunUntil(sim.Time(4*sim.Second + 1))
	sensor.Stop()
	got := sensor.Series().Values()
	want := []float64{1, 1, 1, 9, 9} // t=0,1,2,3,4
	if len(got) != len(want) {
		t.Fatalf("samples = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("samples = %v, want %v", got, want)
		}
	}
	k.Run()
	if sensor.Series().Len() != len(want) {
		t.Error("sensor kept sampling after Stop")
	}
}

func TestSensorValidation(t *testing.T) {
	k := sim.NewKernel(1)
	if _, err := NewSensor(k, 0, 10, func() float64 { return 0 }); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := NewSensor(k, sim.Second, 10, nil); err == nil {
		t.Error("nil measure accepted")
	}
}

func TestLastValue(t *testing.T) {
	var p LastValue
	if err := p.Train(nil); err == nil {
		t.Error("empty train accepted")
	}
	if err := p.Train([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if p.Predict() != 3 {
		t.Errorf("Predict = %v", p.Predict())
	}
	p.Observe(7)
	if p.Predict() != 7 {
		t.Errorf("Predict after Observe = %v", p.Predict())
	}
}

func TestMovingMean(t *testing.T) {
	if _, err := NewMovingMean(0); err == nil {
		t.Error("zero window accepted")
	}
	p, err := NewMovingMean(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Train([]float64{10, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if got := p.Predict(); got != 2 {
		t.Errorf("Predict = %v, want 2 (window excludes the 10)", got)
	}
	p.Observe(6) // window now 2,3,6
	if got := p.Predict(); math.Abs(got-11.0/3) > 1e-12 {
		t.Errorf("Predict = %v", got)
	}
}

func TestARRecoversAR1Process(t *testing.T) {
	// Generate a known AR(1) process and verify the fit recovers phi.
	rng := sim.NewRNG(5)
	const phi = 0.8
	n := 20000
	data := make([]float64, n)
	for i := 1; i < n; i++ {
		data[i] = phi*data[i-1] + rng.Normal(0, 0.1)
	}
	p, err := NewAR(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Train(data); err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.coeffs[0]-phi) > 0.05 {
		t.Errorf("AR(1) coefficient = %v, want ~%v", p.coeffs[0], phi)
	}
}

func TestARDegenerateConstantSignal(t *testing.T) {
	p, err := NewAR(2)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]float64, 100)
	for i := range data {
		data[i] = 4.2
	}
	if err := p.Train(data); err != nil {
		t.Fatal(err)
	}
	if got := p.Predict(); math.Abs(got-4.2) > 1e-9 {
		t.Errorf("constant-signal prediction = %v", got)
	}
}

func TestARValidation(t *testing.T) {
	if _, err := NewAR(0); err == nil {
		t.Error("order 0 accepted")
	}
	p, _ := NewAR(8)
	if err := p.Train([]float64{1, 2, 3}); err == nil {
		t.Error("undersized history accepted")
	}
}

func TestEvaluateOrdering(t *testing.T) {
	// On strongly autocorrelated host load, AR and LAST must beat the
	// long-window mean in one-step MSE — RPS's core observation.
	tr := trace.Synthetic(trace.Heavy, sim.NewRNG(11), 4000)
	data := tr.Loads
	const train = 1000

	ar, _ := NewAR(8)
	arEval, err := Evaluate(ar, data, train)
	if err != nil {
		t.Fatal(err)
	}
	lastEval, err := Evaluate(&LastValue{}, data, train)
	if err != nil {
		t.Fatal(err)
	}
	mm, _ := NewMovingMean(500)
	meanEval, err := Evaluate(mm, data, train)
	if err != nil {
		t.Fatal(err)
	}

	if arEval.MSE >= meanEval.MSE {
		t.Errorf("AR MSE %v not better than long-mean MSE %v", arEval.MSE, meanEval.MSE)
	}
	if lastEval.MSE >= meanEval.MSE {
		t.Errorf("LAST MSE %v not better than long-mean MSE %v", lastEval.MSE, meanEval.MSE)
	}
	if arEval.N != len(data)-train {
		t.Errorf("N = %d", arEval.N)
	}
}

func TestEvaluateValidation(t *testing.T) {
	if _, err := Evaluate(&LastValue{}, []float64{1, 2}, 0); err == nil {
		t.Error("train=0 accepted")
	}
	if _, err := Evaluate(&LastValue{}, []float64{1, 2}, 2); err == nil {
		t.Error("train=len accepted")
	}
}

// Property: series Values() always returns the most recent ≤cap samples
// in order.
func TestSeriesProperty(t *testing.T) {
	prop := func(capRaw uint8, vals []float64) bool {
		capacity := int(capRaw%10) + 1
		s, err := NewSeries(capacity)
		if err != nil {
			return false
		}
		for _, v := range vals {
			s.Add(v)
		}
		got := s.Values()
		want := vals
		if len(vals) > capacity {
			want = vals[len(vals)-capacity:]
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSeriesWindowMatchesSliceModel drives a series and a plain slice
// holding the last capacity samples with the same adds, past several
// wrap-arounds, and requires Window, Values, Last and Mean to agree with
// the model after every add (Mean bit for bit: both sum oldest-first).
func TestSeriesWindowMatchesSliceModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 512} {
		s, err := NewSeries(capacity)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(uint64(capacity))
		var model []float64
		for added := 1; added <= 3*capacity+2; added++ {
			v := rng.Normal(1, 0.7)
			s.Add(v)
			model = append(model, v)
			if len(model) > capacity {
				model = model[1:]
			}
			var sum float64
			for _, m := range model {
				sum += m
			}
			w, vals := s.Window(), s.Values()
			if len(w) != len(model) || len(vals) != len(model) || s.Len() != len(model) {
				t.Fatalf("cap %d after %d adds: Window %d, Values %d, Len %d samples, want %d",
					capacity, added, len(w), len(vals), s.Len(), len(model))
			}
			for i := range model {
				if w[i] != model[i] || vals[i] != model[i] {
					t.Fatalf("cap %d after %d adds: Window %v, Values %v, want %v", capacity, added, w, vals, model)
				}
			}
			if s.Last() != model[len(model)-1] {
				t.Fatalf("cap %d after %d adds: Last %v, want %v", capacity, added, s.Last(), model[len(model)-1])
			}
			if want := sum / float64(len(model)); math.Float64bits(s.Mean()) != math.Float64bits(want) {
				t.Fatalf("cap %d after %d adds: Mean %v, want %v", capacity, added, s.Mean(), want)
			}
		}
	}
}
