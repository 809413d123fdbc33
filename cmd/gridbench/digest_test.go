package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestTraceAndTelemetryDigests pins the -trace and -telemetry files of
// Figure 1 and Table 2, and the -incidents file of Ablation G, to
// committed SHA-256 digests. The table goldens cover only stdout; these
// files carry every span, scraped series and incident bundle, so an
// optimization that moves a single event after the measurement
// boundary, or reorders one span, changes a digest here even when the
// tables stay put.
func TestTraceAndTelemetryDigests(t *testing.T) {
	type file struct{ flag, sha string }
	for _, tc := range []struct {
		name  string
		args  []string
		files []file
	}{
		{
			name: "fig1",
			args: []string{"-exp", "fig1"},
			files: []file{
				{"-trace", "6d236110c88a00ac6108457c494b17f78610b4fd6a880c2bf93e8bcd4878340d"},
				{"-telemetry", "a05ab497bd60e5223076dda292e61edfdc4e37dabea0e5654a49ea3b6cceb273"},
			},
		},
		{
			name: "table2_s2",
			args: []string{"-exp", "table2", "-samples", "2"},
			files: []file{
				{"-trace", "f46f58d69f92fddc4bd2b5fc270c7bd0305d354177160ba89906cb5815b835c1"},
				{"-telemetry", "ff0891935a27abfb3461449919be0a4a4924651f15ee6c40095e3ee9164b5e0c"},
			},
		},
		{
			name: "ablation-recovery_s1",
			args: []string{"-exp", "ablation-recovery", "-samples", "1"},
			files: []file{
				{"-incidents", "71be53132d78773c2b7481b832768280e5c6b191fd0b28befaa88b46cda80250"},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			args := tc.args
			for _, f := range tc.files {
				args = append(args, f.flag, filepath.Join(dir, f.flag[1:]+".json"))
			}
			captureRun(t, args...)
			for _, f := range tc.files {
				path := filepath.Join(dir, f.flag[1:]+".json")
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				if got := hex.EncodeToString(sum[:]); got != f.sha {
					t.Errorf("%s: sha256 %s, want %s (%d bytes)", filepath.Base(path), got, f.sha, len(b))
				}
			}
		})
	}
}
