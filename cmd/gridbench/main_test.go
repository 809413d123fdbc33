package main

import (
	"strings"
	"testing"

	"vmgrid/internal/experiments"
)

func TestUnknownExperimentRejected(t *testing.T) {
	const want = `unknown experiment "warp-drive" (want one of: all, fig1, table1, table2, ` +
		`ablation-staging, ablation-cache, ablation-sched, ablation-migration, ablation-overlay, ` +
		`ablation-rps, ablation-recovery, ablation-partition, ablation-balance, ablation-delta)`
	err := run([]string{"-exp", "warp-drive"})
	if err == nil || err.Error() != want {
		t.Errorf("error = %v\nwant %s", err, want)
	}
}

// TestSamplesRejectedForFixedDesign: -samples on a single experiment
// that takes no sample count must fail, naming the experiment, instead
// of silently running the fixed design.
func TestSamplesRejectedForFixedDesign(t *testing.T) {
	var fixed []string
	for _, e := range experiments.Experiments {
		if e.Samples {
			continue
		}
		fixed = append(fixed, e.Name)
		err := run([]string{"-exp", e.Name, "-samples", "7"})
		if err == nil || !strings.Contains(err.Error(), e.Name) {
			t.Errorf("%s -samples 7: error = %v", e.Name, err)
		}
	}
	want := "table1 ablation-staging ablation-sched ablation-migration ablation-overlay ablation-rps"
	if got := strings.Join(fixed, " "); got != want {
		t.Errorf("fixed-design experiments = %s, want %s", got, want)
	}
}

func TestBadFlagRejected(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestFastExperimentsRun(t *testing.T) {
	// Run the cheap experiments end to end through the CLI path.
	for _, exp := range []string{"ablation-rps", "ablation-sched", "ablation-overlay"} {
		if err := run([]string{"-exp", exp, "-seed", "2"}); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
	}
}

func TestSampleOverride(t *testing.T) {
	if err := run([]string{"-exp", "table2", "-samples", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exp", "fig1", "-samples", "10"}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelOverride(t *testing.T) {
	// Any worker count must be accepted and produce the same tables;
	// the CLI just threads it through (identity is asserted exhaustively
	// in internal/experiments).
	for _, p := range []string{"1", "4"} {
		if err := run([]string{"-exp", "ablation-overlay", "-parallel", p}); err != nil {
			t.Errorf("-parallel %s: %v", p, err)
		}
	}
}

func TestCSVFormat(t *testing.T) {
	if err := run([]string{"-exp", "ablation-rps", "-format", "csv"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exp", "ablation-rps", "-format", "yaml"}); err == nil {
		t.Error("unknown format accepted")
	}
}
