// Package rps is the resource prediction system the paper relies on for
// application-perspective adaptation (§3.2): streaming sensors sample
// resource signals (host load, network bandwidth), time series hold the
// history, and predictors (last-value, moving mean, autoregressive)
// forecast the next measurement so applications can pick resources. It
// follows the architecture of Dinda's RPS toolkit.
package rps

import (
	"errors"
	"fmt"
	"math"

	"vmgrid/internal/sim"
)

// Series is a bounded ring buffer of measurements, kept contiguous: the
// backing array holds two copies of the ring, each sample written at its
// slot i and again at i+capacity, so the history oldest-first is always
// the one run data[start:start+n] and reading it copies nothing.
type Series struct {
	data  []float64 // 2×capacity; data[i+capacity] mirrors data[i]
	start int
	n     int
	total uint64 // samples ever added
}

// NewSeries creates a series holding at most capacity samples.
func NewSeries(capacity int) (*Series, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("rps: series capacity %d", capacity)
	}
	return &Series{data: make([]float64, 2*capacity)}, nil
}

// Add appends a sample, evicting the oldest when full.
func (s *Series) Add(v float64) {
	s.total++
	capacity := len(s.data) / 2
	slot := (s.start + s.n) % capacity
	if s.n < capacity {
		s.n++
	} else {
		s.start = (s.start + 1) % capacity
	}
	s.data[slot], s.data[slot+capacity] = v, v
}

// Len returns the number of stored samples.
func (s *Series) Len() int { return s.n }

// Last returns the most recent sample (0 if empty).
func (s *Series) Last() float64 {
	if s.n == 0 {
		return 0
	}
	return s.data[s.start+s.n-1]
}

// Total returns how many samples were ever added. Unlike Len it keeps
// counting once the ring is full, so it changes exactly when the series
// does — the key for caching anything computed from the history.
func (s *Series) Total() uint64 { return s.total }

// Window returns the samples oldest-first as a view of the ring itself:
// valid until the next Add, and not to be written. Its capacity ends at
// its length, so appending to it copies rather than overwrites the ring.
func (s *Series) Window() []float64 {
	end := s.start + s.n
	return s.data[s.start:end:end]
}

// Values returns the samples oldest-first (a copy).
func (s *Series) Values() []float64 {
	return append(make([]float64, 0, s.n), s.Window()...)
}

// Mean returns the sample mean (0 if empty).
func (s *Series) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.Window() {
		sum += v
	}
	return sum / float64(s.n)
}

// Sensor periodically samples a measurement function into a series —
// the streaming time-series feed of the RPS architecture.
type Sensor struct {
	k        *sim.Kernel
	interval sim.Duration
	measure  func() float64
	series   *Series
	running  bool
	next     sim.EventID
	tickFn   func() // tick, bound once so rearming allocates nothing
}

// NewSensor creates a sensor sampling measure every interval into a
// series of the given history length.
func NewSensor(k *sim.Kernel, interval sim.Duration, history int, measure func() float64) (*Sensor, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("rps: sensor interval %v", interval)
	}
	if measure == nil {
		return nil, errors.New("rps: sensor without a measurement function")
	}
	series, err := NewSeries(history)
	if err != nil {
		return nil, err
	}
	s := &Sensor{k: k, interval: interval, measure: measure, series: series}
	s.tickFn = s.tick
	return s, nil
}

// Series returns the sensor's backing series.
func (s *Sensor) Series() *Series { return s.series }

// Start begins sampling (first sample immediately).
func (s *Sensor) Start() {
	if s.running {
		return
	}
	s.running = true
	s.tick()
}

// Stop halts sampling.
func (s *Sensor) Stop() {
	if !s.running {
		return
	}
	s.running = false
	s.k.Cancel(s.next)
	s.next = sim.EventID{}
}

func (s *Sensor) tick() {
	if !s.running {
		return
	}
	s.series.Add(s.measure())
	s.next = s.k.After(s.interval, s.tickFn)
}

// Predictor forecasts the next sample of a signal.
type Predictor interface {
	// Name identifies the model.
	Name() string
	// Train fits the model to a history (oldest first).
	Train(history []float64) error
	// Predict returns the one-step-ahead forecast.
	Predict() float64
	// Observe feeds the actual next sample, sliding the model forward.
	Observe(v float64)
}

// LastValue predicts "the next value equals the current one" — the
// baseline that is surprisingly hard to beat on host load at short
// leads.
type LastValue struct{ last float64 }

// Name implements Predictor.
func (p *LastValue) Name() string { return "LAST" }

// Train implements Predictor.
func (p *LastValue) Train(history []float64) error {
	if len(history) == 0 {
		return errors.New("rps: LAST needs at least one sample")
	}
	p.last = history[len(history)-1]
	return nil
}

// Predict implements Predictor.
func (p *LastValue) Predict() float64 { return p.last }

// Observe implements Predictor.
func (p *LastValue) Observe(v float64) { p.last = v }

// MovingMean predicts the mean of the last W samples.
type MovingMean struct {
	window  int
	samples []float64
}

// NewMovingMean creates a mean predictor over a window of w samples.
func NewMovingMean(w int) (*MovingMean, error) {
	if w <= 0 {
		return nil, fmt.Errorf("rps: window %d", w)
	}
	return &MovingMean{window: w}, nil
}

// Name implements Predictor.
func (p *MovingMean) Name() string { return fmt.Sprintf("MEAN(%d)", p.window) }

// Train implements Predictor.
func (p *MovingMean) Train(history []float64) error {
	if len(history) == 0 {
		return errors.New("rps: MEAN needs at least one sample")
	}
	start := len(history) - p.window
	if start < 0 {
		start = 0
	}
	p.samples = append(p.samples[:0], history[start:]...)
	return nil
}

// Predict implements Predictor.
func (p *MovingMean) Predict() float64 {
	if len(p.samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range p.samples {
		sum += v
	}
	return sum / float64(len(p.samples))
}

// Observe implements Predictor.
func (p *MovingMean) Observe(v float64) {
	p.samples = append(p.samples, v)
	if len(p.samples) > p.window {
		p.samples = p.samples[1:]
	}
}

// AR is an autoregressive model AR(p) fit by the Yule-Walker equations
// (Levinson-Durbin recursion) — the workhorse model of the RPS toolkit
// for host load.
//
// Every product is converted with float64(...) before it is added: the
// conversion rounds it, which forbids the compiler from fusing the pair
// into one multiply-add on the architectures that have one, so a fit
// gives the same bits everywhere.
type AR struct {
	order  int
	coeffs []float64 // a[1:], the fitted coefficients
	mean   float64
	recent []float64 // last `order` samples, newest last

	// Fit scratch, reused so a steady-state Train allocates nothing:
	// the centred history, the autocorrelations, and the Levinson-Durbin
	// coefficient vectors (a is the current one, next its successor).
	dev        []float64
	r, a, next []float64
}

// NewAR creates an AR model of the given order.
func NewAR(order int) (*AR, error) {
	if order <= 0 {
		return nil, fmt.Errorf("rps: AR order %d", order)
	}
	p := &AR{
		order: order,
		r:     make([]float64, order+1),
		a:     make([]float64, order+1),
		next:  make([]float64, order+1),
	}
	p.coeffs = p.a[1:]
	return p, nil
}

// Name implements Predictor.
func (p *AR) Name() string { return fmt.Sprintf("AR(%d)", p.order) }

// Train implements Predictor: fit coefficients by Levinson-Durbin on the
// sample autocorrelations. It only reads history, which may be a
// series' live Window.
func (p *AR) Train(history []float64) error {
	if len(history) < p.order*2+1 {
		return fmt.Errorf("rps: AR(%d) needs ≥ %d samples, got %d", p.order, p.order*2+1, len(history))
	}
	n := len(history)
	var mean float64
	for _, v := range history {
		mean += v
	}
	mean /= float64(n)

	// Centre the history once. The buffer at least doubles when it
	// grows, so a monitor whose window fills one sample at a time
	// reallocates it a logarithmic number of times.
	if cap(p.dev) < n {
		p.dev = make([]float64, max(n, 2*cap(p.dev)))
	}
	dev := p.dev[:n]
	for i, v := range history {
		dev[i] = v - mean
	}

	r := p.r
	autocorr(dev, r)
	for lag := range r {
		r[lag] /= float64(n)
	}
	a := p.a
	clear(a)
	p.mean = mean
	p.recent = append(p.recent[:0], history[n-p.order:]...)
	if r[0] <= 1e-12 {
		// Constant signal: degenerate to predicting the mean (all
		// coefficients zero).
		return nil
	}

	// Levinson-Durbin recursion.
	next := p.next
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
	return nil
}

// autocorrPortable sets r[lag] to the sum of dev[i]*dev[i-lag] over i
// from lag up, for every lag below len(r), in one pass over dev. Each
// lag's sum is its own floating-point chain that adds its terms in
// ascending i, each product rounded before the add: results downstream
// depend on these exact sums. It is the reference the amd64 kernel is
// tested against and the fit on every other architecture and order.
func autocorrPortable(dev, r []float64) {
	clear(r)
	for i, d := range dev {
		for lag := range r[:min(i+1, len(r))] {
			r[lag] += float64(d * dev[i-lag])
		}
	}
}

// Predict implements Predictor.
func (p *AR) Predict() float64 {
	if len(p.recent) < p.order {
		return p.mean
	}
	pred := p.mean
	for j := 0; j < p.order; j++ {
		pred += float64(p.coeffs[j] * (p.recent[len(p.recent)-1-j] - p.mean))
	}
	return pred
}

// Observe implements Predictor.
func (p *AR) Observe(v float64) {
	p.recent = append(p.recent, v)
	if len(p.recent) > p.order {
		p.recent = p.recent[1:]
	}
}

// Eval reports one-step-ahead accuracy of a predictor on a signal.
type Eval struct {
	Predictor string
	MSE       float64
	MAE       float64
	N         int
}

// Evaluate trains p on the first train samples of data, then walks the
// remainder predicting one step ahead and observing the truth.
func Evaluate(p Predictor, data []float64, train int) (Eval, error) {
	if train <= 0 || train >= len(data) {
		return Eval{}, fmt.Errorf("rps: train split %d of %d", train, len(data))
	}
	if err := p.Train(data[:train]); err != nil {
		return Eval{}, err
	}
	var mse, mae float64
	n := 0
	for i := train; i < len(data); i++ {
		pred := p.Predict()
		err := pred - data[i]
		mse += float64(err * err)
		mae += math.Abs(err)
		p.Observe(data[i])
		n++
	}
	return Eval{Predictor: p.Name(), MSE: mse / float64(n), MAE: mae / float64(n), N: n}, nil
}
