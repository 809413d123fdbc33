// Package fault is the deterministic fault schedule: it draws failure
// instants from a seeded sim.RNG stream and runs fault callbacks on the
// simulation kernel. The same seed therefore produces the same failure
// schedule, bit for bit, which keeps faulty runs safe under
// experiments.RunSamples fan-out and lets recovery experiments pair
// faulty and fault-free arms exactly.
//
// The package only schedules; the faults themselves are the callers'
// callbacks passed to At — core.Grid's CrashNode/RebootNode, or
// netsim's SetLinkUp/SetNodeUp/SetNodeDirUp.
package fault

import "vmgrid/internal/sim"

// Injector schedules failures on one simulation kernel. All randomness
// flows from its private RNG stream, so the schedule is a pure function
// of the seed.
type Injector struct {
	k   *sim.Kernel
	rng *sim.RNG
}

// NewSeeded creates an injector with an explicit seed, independent of
// how much kernel randomness other components consumed. Experiments use
// this to share one crash schedule across paired arms.
func NewSeeded(k *sim.Kernel, seed uint64) *Injector {
	return &Injector{k: k, rng: sim.NewRNG(seed)}
}

// At schedules fn as a fault event at absolute time t (immediately if t
// is not in the future).
func (in *Injector) At(t sim.Time, fn func()) {
	if t <= in.k.Now() {
		in.k.After(0, fn)
		return
	}
	in.k.At(t, fn)
}

// Times draws failure instants from a Poisson process with the given
// mean time between failures, over [now, now+horizon). The instants are
// a running sum of non-negative gaps, so they come out ascending. The
// draw consumes the injector's RNG stream only, so two injectors with
// the same seed produce identical schedules.
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
	return out
}
