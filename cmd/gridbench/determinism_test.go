package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vmgrid/internal/experiments"
)

// captureRun executes run(args) with stdout captured and returns the
// output minus the first line (the run header embeds the worker count
// and Go version, which legitimately vary).
func captureRun(t *testing.T, args ...string) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	runErr := run(args)
	_ = w.Close()
	os.Stdout = old
	out := <-done
	_ = r.Close()
	if runErr != nil {
		t.Fatalf("run(%v): %v", args, runErr)
	}
	if i := strings.IndexByte(out, '\n'); i >= 0 {
		out = out[i+1:]
	}
	return out
}

// TestCriticalPathTableByteIdenticalAcrossParallelism runs Table 2 with
// tracing on at -parallel 1 and 8 and requires the whole stdout —
// Table 2 itself, the per-phase table, and the critical-path
// attribution table — to match byte for byte. Causal ids are seeded
// from each sample's simulation seed and attribution is a pure function
// of the spans, so the fan-out schedule must not leak into any of it.
func TestCriticalPathTableByteIdenticalAcrossParallelism(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	args := []string{"-exp", "table2", "-samples", "2", "-trace", trace}
	p1 := captureRun(t, append(args, "-parallel", "1")...)
	p8 := captureRun(t, append(args, "-parallel", "8")...)
	if p1 != p8 {
		t.Error("traced table2 output differs between -parallel 1 and -parallel 8")
	}
	if !strings.Contains(p1, "Critical-path attribution") {
		t.Error("output lacks the critical-path attribution table")
	}
	for _, res := range []string{"cpu", "phase"} {
		if !strings.Contains(p1, res) {
			t.Errorf("critical-path table never attributes to %q:\n%s", res, p1)
		}
	}
}

// TestCriticalPathTableNamesRootlessCells: Figure 1 starts its VMs
// outside a grid session, so its traces hold no session root. The
// critical-path table says so for each of its cells instead of printing
// a header with no rows, while table2's cells, which all have roots,
// get no such row.
func TestCriticalPathTableNamesRootlessCells(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	out := captureRun(t, "-exp", "fig1", "-trace", trace)
	_, paths, _ := strings.Cut(out, "Critical-path attribution")
	if got := strings.Count(paths, "no session root"); got != 12 {
		t.Errorf("fig1 critical-path table has %d no-root rows, want one per cell (12):\n%s", got, paths)
	}
	out = captureRun(t, "-exp", "table2", "-samples", "1", "-trace", trace)
	if strings.Contains(out, "no session root") {
		t.Errorf("table2 has a cell without a session root:\n%s", out)
	}
}

// TestOutputsByteIdenticalAcrossParallelism runs every registered
// experiment at -parallel 1 and -parallel 8 and requires the tables to
// match its committed golden byte for byte. This is the determinism
// guard on the data-plane optimizations: batched reads, pooled RPC
// calls, cached routes, and interned telemetry keys must not move a
// single event, so the numbers cannot drift — at any worker count.
//
// An experiment's golden is testdata/<name>.golden, run at its default
// sample count, or testdata/<name>_s<N>.golden, run at -samples N. An
// experiment without exactly one golden fails the test.
func TestOutputsByteIdenticalAcrossParallelism(t *testing.T) {
	for _, e := range experiments.Experiments {
		matches, err := filepath.Glob(filepath.Join("testdata", e.Name+"_s*.golden"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join("testdata", e.Name+".golden")); err == nil {
			matches = append(matches, filepath.Join("testdata", e.Name+".golden"))
		}
		if len(matches) != 1 {
			t.Errorf("%s: want exactly one golden in testdata, found %v", e.Name, matches)
			continue
		}
		golden := filepath.Base(matches[0])
		args := []string{"-exp", e.Name}
		if n, ok := strings.CutPrefix(strings.TrimSuffix(golden, ".golden"), e.Name+"_s"); ok {
			args = append(args, "-samples", n)
		}
		t.Run(golden, func(t *testing.T) {
			want, err := os.ReadFile(matches[0])
			if err != nil {
				t.Fatal(err)
			}
			p1 := captureRun(t, append(args, "-parallel", "1")...)
			p8 := captureRun(t, append(args, "-parallel", "8")...)
			if p1 != p8 {
				t.Errorf("output differs between -parallel 1 and -parallel 8")
			}
			if p1 != string(want) {
				t.Errorf("output drifted from committed golden %s:\n got %d bytes\nwant %d bytes",
					golden, len(p1), len(want))
			}
		})
	}
}
