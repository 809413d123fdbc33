package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestTraceAndTelemetryDigests pins the -trace and -telemetry files of
// Figure 1 and Table 2 to committed SHA-256 digests. The table goldens
// cover only stdout; these files carry every span and scraped series,
// so an optimization that moves a single event after the measurement
// boundary, or reorders one span, changes a digest here even when the
// tables stay put.
func TestTraceAndTelemetryDigests(t *testing.T) {
	for _, tc := range []struct {
		name             string
		args             []string
		trace, telemetry string
	}{
		{
			name:      "fig1",
			args:      []string{"-exp", "fig1"},
			trace:     "6d236110c88a00ac6108457c494b17f78610b4fd6a880c2bf93e8bcd4878340d",
			telemetry: "a05ab497bd60e5223076dda292e61edfdc4e37dabea0e5654a49ea3b6cceb273",
		},
		{
			name:      "table2_s2",
			args:      []string{"-exp", "table2", "-samples", "2"},
			trace:     "f46f58d69f92fddc4bd2b5fc270c7bd0305d354177160ba89906cb5815b835c1",
			telemetry: "7b43402e6d28e5c28e3d1028f816eeba01fedc5fd4a2f9449035bffa1639979f",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tracePath := filepath.Join(dir, "trace.json")
			telPath := filepath.Join(dir, "telemetry.json")
			captureRun(t, append(tc.args, "-trace", tracePath, "-telemetry", telPath)...)
			for _, f := range []struct{ path, want string }{
				{tracePath, tc.trace},
				{telPath, tc.telemetry},
			} {
				b, err := os.ReadFile(f.path)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				if got := hex.EncodeToString(sum[:]); got != f.want {
					t.Errorf("%s: sha256 %s, want %s (%d bytes)", filepath.Base(f.path), got, f.want, len(b))
				}
			}
		})
	}
}
