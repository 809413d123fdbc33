package experiments

import (
	"testing"

	"vmgrid/internal/obs"
	"vmgrid/internal/telemetry"
)

// TestObserversDoNotPerturbTables: observation is a pure read. Every
// registry entry renders the same table with no observer as with trace,
// telemetry and incident sets all attached, and the entries that
// record into those sets do record.
func TestObserversDoNotPerturbTables(t *testing.T) {
	for _, e := range Experiments {
		t.Run(e.Name, func(t *testing.T) {
			ctx := Ctx{Seed: 1, Samples: 1}
			if e.Name == "fig1" {
				ctx.Samples = 20
			}
			plain, _, err := e.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			ctx.Trace, ctx.Telemetry, ctx.Incidents = obs.NewTraceSet(), telemetry.NewSet(), obs.NewIncidentSet()
			observed, _, err := e.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := observed.String(), plain.String(); got != want {
				t.Fatalf("observers changed the table:\nplain\n%s\nobserved\n%s", want, got)
			}
			switch e.Name {
			case "fig1", "table2":
				if ctx.Trace.Len() == 0 || ctx.Telemetry.Len() == 0 {
					t.Errorf("recorded %d traces and %d telemetry entries, want both > 0",
						ctx.Trace.Len(), ctx.Telemetry.Len())
				}
			case "ablation-recovery":
				if ctx.Incidents.Len() == 0 {
					t.Error("recorded no incident runs")
				}
			}
		})
	}
}
