package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// readJSON runs gridbench with args plus flag writing to a temporary
// file and decodes that file into v.
func readJSON(t *testing.T, v any, flag string, args ...string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out.json")
	captureRun(t, append(args, flag, path)...)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s file: %v", flag, err)
	}
}

// TestTelemetrySmoke: Table 2 at one sample per cell exports one
// telemetry record per sample, and every record carries series.
func TestTelemetrySmoke(t *testing.T) {
	var d struct {
		Telemetry []struct {
			Series []json.RawMessage `json:"series"`
		} `json:"telemetry"`
	}
	readJSON(t, &d, "-telemetry", "-exp", "table2", "-samples", "1")
	if len(d.Telemetry) != 6 {
		t.Fatalf("want 6 samples, got %d", len(d.Telemetry))
	}
	for i, e := range d.Telemetry {
		if len(e.Series) == 0 {
			t.Errorf("sample %d has no series", i)
		}
	}
}

// TestTraceSmoke: Table 2 at one sample per cell writes a Chrome trace
// JSON file with a non-empty traceEvents list.
func TestTraceSmoke(t *testing.T) {
	var d struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	readJSON(t, &d, "-trace", "-exp", "table2", "-samples", "1")
	if len(d.TraceEvents) == 0 {
		t.Fatal("trace file has no traceEvents")
	}
}

// TestIncidentSmoke: the recovery sweep with the flight recorder on
// freezes incident bundles, sealed bundles carry postmortem reports,
// and some report's critical path names the supervisor's restore
// phase, directly or through a step it passed via.
func TestIncidentSmoke(t *testing.T) {
	type step struct {
		Cat  string   `json:"cat"`
		Name string   `json:"name"`
		Via  []string `json:"via"`
	}
	type bundle struct {
		SealedUs int64 `json:"sealedUs"`
		Report   *struct {
			CriticalPath []step `json:"criticalPath"`
		} `json:"report"`
	}
	var d struct {
		Incidents []struct {
			Incidents []bundle `json:"incidents"`
		} `json:"incidents"`
	}
	readJSON(t, &d, "-incidents", "-exp", "ablation-recovery", "-samples", "1")
	if len(d.Incidents) == 0 {
		t.Fatal("no recorded runs in the incidents file")
	}
	var bundles, sealed, reports, restore int
	for _, run := range d.Incidents {
		for _, b := range run.Incidents {
			bundles++
			if b.SealedUs < 0 {
				continue
			}
			sealed++
			if b.Report == nil {
				continue
			}
			reports++
			if slices.ContainsFunc(b.Report.CriticalPath, func(s step) bool {
				return s.Cat == "supervisor" && s.Name == "restore" || slices.Contains(s.Via, "supervisor/restore")
			}) {
				restore++
			}
		}
	}
	if bundles == 0 {
		t.Fatal("recovery sweep froze no incident bundles")
	}
	if reports == 0 {
		t.Fatalf("none of %d sealed bundles carries a postmortem report", sealed)
	}
	if restore == 0 {
		t.Fatalf("no postmortem critical path of %d names the supervisor restore phase", reports)
	}
}
