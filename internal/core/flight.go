package core

// Flight-recorder glue: the grid owns at most one obs.FlightRecorder,
// fed by the grid tracer. Incident triggers live at the core layer —
// supervisor recoveries, zombie fencing, SLO alerts — so the helpers
// here are what the rest of the package calls; every one is a cheap
// no-op when no recorder is enabled.

import "vmgrid/internal/obs"

// EnableFlightRecorder turns on the always-on black box: a bounded
// ring of recently completed spans plus incident bundles frozen from
// it on triggers (recovery entry, fencing, SLO alerts). Call it right
// after NewGrid, like SetTracer. If no tracer is set yet, a
// flight-only tracer is installed — spans flow through the ring with
// bounded memory but are not retained for full-trace export; enable a
// retaining tracer first (SetTracer) when both are wanted.
func (g *Grid) EnableFlightRecorder() *obs.FlightRecorder {
	if g.recorder != nil {
		return g.recorder
	}
	g.recorder = obs.NewFlightRecorder(g.k)
	if g.tracer == nil {
		g.SetTracer(obs.NewFlightOnly(g.k))
	} else {
		g.tracer.SetFlightRecorder(g.recorder)
	}
	return g.recorder
}

// Recorder returns the grid's flight recorder (nil when disabled; the
// nil value is safe to use).
func (g *Grid) Recorder() *obs.FlightRecorder { return g.recorder }

// incidentNow freezes an immediately-sealed incident bundle.
func (g *Grid) incidentNow(trigger, subject string) { g.recorder.FreezeNow(trigger, subject) }

// incidentOpen starts an incident rooted at a live span; the bundle
// captures the root's trace as it unfolds and seals — postmortem
// included — when the root span ends.
func (g *Grid) incidentOpen(trigger, subject string, root obs.SpanContext) {
	g.recorder.Open(trigger, subject, root)
}
