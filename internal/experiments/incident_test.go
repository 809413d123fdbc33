package experiments

import (
	"bytes"
	"testing"

	"vmgrid/internal/obs"
	"vmgrid/internal/sim"
)

// recoveryIncidents runs a reduced Ablation G sweep with flight
// recorders on and returns the incident set plus its JSON emission.
func recoveryIncidents(t *testing.T, workers int) (*obs.IncidentSet, []byte) {
	t.Helper()
	set := obs.NewIncidentSet()
	if _, err := ablationRecovery(5, 1, workers, set); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := set.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return set, buf.Bytes()
}

// TestRecoveryIncidentsDeterministicAcrossWorkers extends the
// byte-identity guarantee to incident bundles: every TraceID, SpanID,
// incident id, and report in the JSON is a pure function of the seed,
// not of the fan-out schedule.
func TestRecoveryIncidentsDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full recovery sweep in -short mode")
	}
	one, oneJSON := recoveryIncidents(t, 1)
	_, eightJSON := recoveryIncidents(t, 8)
	if !bytes.Equal(oneJSON, eightJSON) {
		t.Fatalf("incident JSON differs between workers=1 (%d bytes) and workers=8 (%d bytes)",
			len(oneJSON), len(eightJSON))
	}
	if one.Len() != 8 { // 2 MTBFs x 1 replicate x 4 intervals
		t.Fatalf("incident set has %d runs, want 8", one.Len())
	}
	if one.Total() == 0 {
		t.Fatal("recovery sweep produced no incidents (crashes should trigger them)")
	}
}

// TestRecoveryIncidentPostmortem is the acceptance check on the
// analyzer's output: a session crash during ablation-recovery must
// yield a sealed "recovery" incident whose critical path names the
// supervisor restore phase, and each stale-lease alert fired by the
// telemetry shadow detector must freeze its own bundle.
func TestRecoveryIncidentPostmortem(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery run in -short mode")
	}
	// Seed 1 at MTBF 10 min is known-crashy (the lease-alert test relies
	// on the same schedule shape).
	arm, rec, err := recoveryRun(1, 10*sim.Minute, 60*sim.Second, true)
	if err != nil {
		t.Fatal(err)
	}
	if arm.Crashes == 0 {
		t.Fatal("crash schedule produced no crashes; pick another seed")
	}
	// Aborted failover attempts (no target up yet, backoff) seal
	// zero-length incidents with empty paths; at least one completed
	// recovery must name the restore phase on its critical path.
	restorePaths := 0
	alertBundles := 0
	for _, inc := range rec.Incidents() {
		switch {
		case inc.Trigger == "recovery" && inc.Sealed():
			if inc.Report == nil {
				t.Fatalf("%s: sealed recovery incident has no postmortem", inc.ID)
			}
			if inc.Report.CriticalPathNames("supervisor", "restore") {
				restorePaths++
			} else if inc.Report.TotalUs > 0 {
				t.Errorf("%s: %.3fs recovery's critical path does not pass through the supervisor restore phase: %+v",
					inc.ID, inc.Report.TotalUs.Seconds(), inc.Report.Critical)
			}
		case inc.Trigger == "alert:stale-lease":
			alertBundles++
		}
	}
	if restorePaths == 0 {
		t.Error("no recovery incident's critical path names the supervisor restore phase")
	}
	if arm.LeaseAlerts > 0 && alertBundles == 0 {
		t.Errorf("%d stale-lease alerts fired but no alert incident was frozen", arm.LeaseAlerts)
	}
}
