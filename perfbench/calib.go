package main

import (
	"math"
	"syscall"
	"time"
)

// The simulators are single-threaded compute on a shared host whose
// speed drifts by up to half over minutes as other tenants come and go,
// and a pass's CPU time drifts with its wall time, so neither is steady
// on its own. Each simulator pass therefore also times calibrate, a fixed
// event loop of the same kind (heap-ordered events, small allocations,
// map updates) that lives in the benchmark and does not change with the
// program, in slices before its first experiment call and after each, and
// reports its times relative to a slice's mean time. calibRefS turns the
// ratio back into seconds: it is a slice's time on the two-CPU machine
// the benchmark was sized on, so the reported times read as seconds on
// that machine at its usual speed.

// calibSteps is the number of events each calibration slice handles.
const calibSteps = 250_000

// calibRefS is the wall time of one calibration slice on the reference
// machine.
const calibRefS = 0.075

// calibSum is calibrate(calibSteps)'s checksum: a calibration that
// computes something else no longer measures the same work.
const calibSum = 521023181

// calEvent is one calibration event.
type calEvent struct {
	at   float64
	seq  uint64
	node uint32
	buf  []byte
}

// calibrate runs a discrete-event loop of steps events over a binary
// heap, allocating one event per step and a payload every eighth, and
// returns a checksum of what it computed.
func calibrate(steps int) uint64 {
	const nodes = 4096
	x := uint64(0x9e3779b97f4a7c15)
	rand := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	less := func(a, b *calEvent) bool {
		return a.at < b.at || (a.at == b.at && a.seq < b.seq)
	}
	var h []*calEvent
	push := func(e *calEvent) {
		h = append(h, e)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if !less(h[i], h[p]) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	pop := func() *calEvent {
		top := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h[last] = nil
		h = h[:last]
		for i := 0; ; {
			l, m := 2*i+1, i
			if l < len(h) && less(h[l], h[m]) {
				m = l
			}
			if r := l + 1; r < len(h) && less(h[r], h[m]) {
				m = r
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
		return top
	}

	state := make(map[uint32]float64, nodes)
	for i := 0; i < 1024; i++ {
		r := rand()
		push(&calEvent{at: float64(r%1000) / 100, seq: uint64(i), node: uint32(r>>32) % nodes})
	}
	var sum uint64
	for i := 0; i < steps; i++ {
		e := pop()
		state[e.node] += math.Sqrt(e.at + 1)
		for _, b := range e.buf {
			sum += uint64(b)
		}
		r := rand()
		ne := &calEvent{at: e.at + float64(r%1000)/100, seq: uint64(1024 + i), node: uint32(r>>32) % nodes}
		if r&7 == 0 {
			ne.buf = make([]byte, 64+r%448)
			ne.buf[len(ne.buf)-1] = byte(r >> 8)
		}
		push(ne)
		sum += uint64(e.node)
	}
	for _, v := range state {
		sum += uint64(v)
	}
	return sum
}

// timing is one measured stretch of a worker: wall and CPU seconds.
type timing struct{ wall, cpu float64 }

// timed runs f and returns its wall and CPU time.
func timed(f func()) timing {
	c0, t0 := cpuSelf(), time.Now()
	f()
	return timing{wall: time.Since(t0).Seconds(), cpu: cpuSelf() - c0}
}

// cpuSelf is this process's user plus system CPU seconds so far.
func cpuSelf() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}
