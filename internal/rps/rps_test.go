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
	buf := make([]float64, 1, 8)
	got := s.AppendValues(buf[:0])
	if &got[0] != &buf[0] || len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Errorf("AppendValues = %v, want [3 4 5] in the caller's buffer", got)
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

// TestAppendValuesMatchesModuloWalk checks the two-run ring copy against
// a per-sample modulo walk at every fill level and wrap point.
func TestAppendValuesMatchesModuloWalk(t *testing.T) {
	for capacity := 1; capacity <= 6; capacity++ {
		s, err := NewSeries(capacity)
		if err != nil {
			t.Fatal(err)
		}
		for added := 0; added <= 3*capacity; added++ {
			var want []float64
			for i := 0; i < s.n; i++ {
				want = append(want, s.data[(s.start+i)%len(s.data)])
			}
			got := s.AppendValues([]float64{-1})
			if len(got) != len(want)+1 || got[0] != -1 {
				t.Fatalf("cap %d after %d adds: AppendValues = %v, want -1 then %v", capacity, added, got, want)
			}
			for i := range want {
				if got[i+1] != want[i] {
					t.Fatalf("cap %d after %d adds: AppendValues = %v, want -1 then %v", capacity, added, got, want)
				}
			}
			s.Add(float64(added + 1))
		}
	}
}
