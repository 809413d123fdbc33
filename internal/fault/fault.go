// Package fault is the deterministic fault-injection fabric: it
// schedules failures — node crash/reboot, link flap, network partition,
// VFS RPC loss and delay — on the simulation kernel, with every random
// choice drawn from a seeded sim.RNG stream. The same seed therefore
// produces the same failure schedule, bit for bit, which keeps faulty
// runs safe under experiments.RunSamples fan-out and lets recovery
// experiments pair faulty and fault-free arms exactly.
//
// The package is deliberately below the middleware: it knows how to
// break links (netsim) and transports (vfs), and drives node-level
// crashes through the Crasher interface so core can stay independent.
package fault

import (
	"sort"

	"vmgrid/internal/netsim"
	"vmgrid/internal/sim"
)

// Crasher is anything whose nodes can fail-stop and later recover —
// core.Grid implements it.
type Crasher interface {
	CrashNode(name string) error
	RebootNode(name string) error
}

// Injector schedules failures on one simulation kernel. All randomness
// flows from its private RNG stream, so the schedule is a pure function
// of the seed.
type Injector struct {
	k   *sim.Kernel
	rng *sim.RNG

	scheduled int
	fired     int
}

// New creates an injector whose RNG stream splits off the kernel's —
// deterministic as long as construction happens at a fixed point in the
// setup sequence.
func New(k *sim.Kernel) *Injector {
	return NewSeeded(k, k.RNG().Uint64())
}

// NewSeeded creates an injector with an explicit seed, independent of
// how much kernel randomness other components consumed. Experiments use
// this to share one crash schedule across paired arms.
func NewSeeded(k *sim.Kernel, seed uint64) *Injector {
	return &Injector{k: k, rng: sim.NewRNG(seed)}
}

// RNG exposes the injector's stream for custom fault distributions.
func (in *Injector) RNG() *sim.RNG { return in.rng }

// Scheduled returns how many fault events have been scheduled.
func (in *Injector) Scheduled() int { return in.scheduled }

// Fired returns how many fault events have executed.
func (in *Injector) Fired() int { return in.fired }

// At schedules fn as a fault event at absolute time t (immediately if t
// is not in the future).
func (in *Injector) At(t sim.Time, fn func()) {
	in.scheduled++
	run := func() {
		in.fired++
		fn()
	}
	if t <= in.k.Now() {
		in.k.After(0, run)
		return
	}
	in.k.At(t, run)
}

// Times draws failure instants from a Poisson process with the given
// mean time between failures, over [now, now+horizon), sorted ascending.
// The draw consumes the injector's RNG stream only, so two injectors
// with the same seed produce identical schedules.
func (in *Injector) Times(mtbf, horizon sim.Duration) []sim.Time {
	var out []sim.Time
	t := in.k.Now()
	end := t.Add(horizon)
	for {
		gap := sim.DurationOf(in.rng.Exp(mtbf.Seconds()))
		t = t.Add(gap)
		if t >= end {
			break
		}
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CrashReboot schedules a fail-stop crash of node at time at, followed
// by a reboot after outage (outage ≤ 0 = the node never comes back).
func (in *Injector) CrashReboot(c Crasher, node string, at sim.Time, outage sim.Duration) {
	in.At(at, func() { _ = c.CrashNode(node) })
	if outage > 0 {
		in.At(at.Add(outage), func() { _ = c.RebootNode(node) })
	}
}

// FlapLink takes the a<->b link down at time at and restores it after
// outage (outage ≤ 0 = the link stays down).
func (in *Injector) FlapLink(n *netsim.Network, a, b string, at sim.Time, outage sim.Duration) {
	in.At(at, func() { _ = n.SetLinkUp(a, b, false) })
	if outage > 0 {
		in.At(at.Add(outage), func() { _ = n.SetLinkUp(a, b, true) })
	}
}

// PartitionNode isolates a node — every attached link fails — at time
// at, healing after outage (outage ≤ 0 = permanent).
func (in *Injector) PartitionNode(n *netsim.Network, node string, at sim.Time, outage sim.Duration) {
	in.At(at, func() { _ = n.SetNodeUp(node, false) })
	if outage > 0 {
		in.At(at.Add(outage), func() { _ = n.SetNodeUp(node, true) })
	}
}
