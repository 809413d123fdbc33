// Package sched implements the resource-control mechanisms the paper
// proposes for scheduling virtual machines under resource-owner
// constraints (§3.2): proportional-share schedulers (lottery scheduling
// and weighted fair queueing), a coarse-grained SIGSTOP/SIGCONT duty-
// cycle modulator for unmodified host schedulers, and a small constraint
// language that compiles owner policies into scheduler parameters.
package sched

import (
	"fmt"

	"vmgrid/internal/hostos"
	"vmgrid/internal/sim"
)

// QuantumScheduler picks which client runs each quantum. Implementations
// must be deterministic given their inputs (lottery draws come from an
// injected RNG).
type QuantumScheduler interface {
	// Name identifies the algorithm.
	Name() string
	// Clients returns the number of clients.
	Clients() int
	// Next returns the index of the client to run for the next quantum.
	Next() int
	// SetShare changes a client's entitlement (tickets or weight).
	SetShare(client int, share float64) error
}

// Lottery is Waldspurger-style lottery scheduling: each client holds
// tickets; every quantum a uniformly random ticket picks the winner.
// Expected CPU shares are proportional to ticket counts.
type Lottery struct {
	rng     *sim.RNG
	tickets []float64
	total   float64
}

// NewLottery creates a lottery scheduler with the given ticket counts.
func NewLottery(rng *sim.RNG, tickets ...float64) (*Lottery, error) {
	if len(tickets) == 0 {
		return nil, fmt.Errorf("sched: lottery with no clients")
	}
	l := &Lottery{rng: rng, tickets: append([]float64(nil), tickets...)}
	for i, t := range tickets {
		if t < 0 {
			return nil, fmt.Errorf("sched: client %d holds %v tickets", i, t)
		}
		l.total += t
	}
	if l.total <= 0 {
		return nil, fmt.Errorf("sched: lottery with zero total tickets")
	}
	return l, nil
}

// Name implements QuantumScheduler.
func (l *Lottery) Name() string { return "lottery" }

// Clients implements QuantumScheduler.
func (l *Lottery) Clients() int { return len(l.tickets) }

// SetShare implements QuantumScheduler.
func (l *Lottery) SetShare(client int, share float64) error {
	if client < 0 || client >= len(l.tickets) || share < 0 {
		return fmt.Errorf("sched: bad SetShare(%d, %v)", client, share)
	}
	l.total += share - l.tickets[client]
	l.tickets[client] = share
	return nil
}

// Next implements QuantumScheduler by drawing a ticket.
func (l *Lottery) Next() int {
	draw := l.rng.Float64() * l.total
	var acc float64
	for i, t := range l.tickets {
		acc += t
		if draw < acc {
			return i
		}
	}
	// Floating-point edge: last client with tickets wins.
	for i := len(l.tickets) - 1; i >= 0; i-- {
		if l.tickets[i] > 0 {
			return i
		}
	}
	return 0
}

// WFQ is weighted fair queueing adapted to CPU quanta: each client has a
// virtual time advanced by quantum/weight when it runs; the client with
// the smallest virtual time runs next. Deterministic, with bounded
// short-term unfairness (unlike the lottery's probabilistic shares).
type WFQ struct {
	weights []float64
	vtime   []float64
}

// NewWFQ creates a WFQ scheduler with the given weights.
func NewWFQ(weights ...float64) (*WFQ, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("sched: wfq with no clients")
	}
	for i, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("sched: client %d weight %v", i, w)
		}
	}
	return &WFQ{
		weights: append([]float64(nil), weights...),
		vtime:   make([]float64, len(weights)),
	}, nil
}

// Name implements QuantumScheduler.
func (w *WFQ) Name() string { return "wfq" }

// Clients implements QuantumScheduler.
func (w *WFQ) Clients() int { return len(w.weights) }

// SetShare implements QuantumScheduler.
func (w *WFQ) SetShare(client int, share float64) error {
	if client < 0 || client >= len(w.weights) || share <= 0 {
		return fmt.Errorf("sched: bad SetShare(%d, %v)", client, share)
	}
	w.weights[client] = share
	return nil
}

// Next implements QuantumScheduler.
func (w *WFQ) Next() int {
	best := 0
	for i := 1; i < len(w.vtime); i++ {
		if w.vtime[i] < w.vtime[best] {
			best = i
		}
	}
	w.vtime[best] += 1 / w.weights[best]
	return best
}

// Modulator enforces a CPU share on an unmodified host scheduler by
// duty-cycling a process with stop/continue signals — the paper's
// "modulate the priority of virtual machine processes under the regular
// Linux scheduler, using SIGSTOP/SIGCONT signal delivery". It is coarse
// (period-granular) but needs no kernel support.
type Modulator struct {
	k     *sim.Kernel
	proc  *hostos.Process
	share float64

	running bool
	stopped bool
	next    sim.EventID
}

// modulatorPeriod is the duty cycle's length: the process runs for
// share of each period and is stopped for the rest.
const modulatorPeriod = 200 * sim.Millisecond

// NewModulator prepares (but does not start) duty-cycling proc to the
// given share of each period.
func NewModulator(k *sim.Kernel, proc *hostos.Process, share float64) (*Modulator, error) {
	if share < 0 || share > 1 {
		return nil, fmt.Errorf("sched: modulator share %v", share)
	}
	return &Modulator{k: k, proc: proc, share: share}, nil
}

// Share returns the enforced share.
func (m *Modulator) Share() float64 { return m.share }

// SetShare adjusts the enforced share (takes effect next period).
func (m *Modulator) SetShare(share float64) error {
	if share < 0 || share > 1 {
		return fmt.Errorf("sched: modulator share %v", share)
	}
	m.share = share
	return nil
}

// Start begins enforcement.
func (m *Modulator) Start() {
	if m.running {
		return
	}
	m.running = true
	m.tick()
}

// Stop ends enforcement, leaving the process running.
func (m *Modulator) Stop() {
	if !m.running {
		return
	}
	m.running = false
	m.k.Cancel(m.next)
	m.next = sim.EventID{}
	if m.stopped {
		m.proc.Cont()
		m.stopped = false
	}
}

func (m *Modulator) tick() {
	if !m.running {
		return
	}
	runFor := sim.Duration(float64(modulatorPeriod) * m.share)
	stopFor := modulatorPeriod - runFor
	if m.stopped {
		m.proc.Cont()
		m.stopped = false
	}
	if stopFor <= 0 {
		m.next = m.k.After(modulatorPeriod, m.tick)
		return
	}
	if runFor <= 0 {
		m.proc.Stop()
		m.stopped = true
		m.next = m.k.After(modulatorPeriod, m.tick)
		return
	}
	m.next = m.k.After(runFor, func() {
		if !m.running {
			return
		}
		m.proc.Stop()
		m.stopped = true
		m.next = m.k.After(stopFor, m.tick)
	})
}
