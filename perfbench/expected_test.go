package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const repoRoot = ".."

func TestSimSeedMapsOntoRecordedSeeds(t *testing.T) {
	for seed, want := range map[int64]uint64{1: 1, 16: 16, 17: 1, 0: 16, -1: 15, 33: 1} {
		if got := simSeed(seed); got != want {
			t.Errorf("simSeed(%d) = %d, want %d", seed, got, want)
		}
	}
}

// TestCheckRejectsPerturbedTable: the recorded Table 1 at seed 1 passes
// both the record and gridbench's golden, and changing one digit fails
// both.
func TestCheckRejectsPerturbedTable(t *testing.T) {
	chk, err := newTableChecker(repoRoot, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := findCall("table1").run(1, simWorkers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := chk.check("table1", out.text); err != nil {
		t.Fatalf("current Table 1 fails its check: %v", err)
	}
	i := strings.IndexAny(out.text, "123456789")
	perturbed := out.text[:i] + string(out.text[i]^1) + out.text[i+1:]
	if err := chk.exp.check(1, "table1", perturbed); err == nil {
		t.Error("record accepts a perturbed table")
	}
	if err := checkTable1Golden(chk.golden, perturbed); err == nil {
		t.Error("golden accepts a perturbed table")
	}
	if err := chk.exp.check(2, "no-such-experiment", out.text); err == nil {
		t.Error("check accepts a table with no record")
	}
}

func TestRecordCoversEverySeedAndCall(t *testing.T) {
	exp, err := loadExpected(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp) != recordedSeeds {
		t.Fatalf("%d seeds recorded, want %d", len(exp), recordedSeeds)
	}
	for seed, tables := range exp {
		for _, calls := range simWorkloads {
			for _, c := range calls {
				if len(tables[c.name]) != 64 {
					t.Errorf("seed %s: no hash for %s", seed, c.name)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesMetrics: BENCHMARK.json lists the gated
// workloads (not daemon, see the package comment) and exactly the
// metrics this program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ","); got != "paper,resilience" {
		t.Errorf("workloads = %s", got)
	}
	compare := func(kind string, got, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d reported", kind, len(got), len(want))
			return
		}
		for i := range want {
			w := want[i]
			w.Moves = ""
			if got[i] != w {
				t.Errorf("%s[%d] = %+v, want %+v", kind, i, got[i], w)
			}
		}
	}
	compare("end_to_end", bench.EndToEnd, endToEnd)
	compare("per_layer", bench.PerLayer, perLayer)
}
