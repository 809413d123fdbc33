package vmgrid_test

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// fusedOps lists, with their counts, the functions of gridbench's arm64
// build that hold a fused multiply-add (FMADDD, FMSUBD, FNMADDD or
// FNMSUBD). A fused op rounds once where amd64 rounds twice, so each one
// is a place where arm64 may compute different bits than amd64. Code
// that must give the same bits everywhere (the AR fit in rps) rounds the
// product with float64(...) before adding it and so stays off the list.
// TestArm64FusedOps keeps the list exact, so it can only shrink: a new
// fused op fails, and so does a listed count that fell.
var fusedOps = map[string]int{
	"core.(*Session).Usage":                1,
	"core.(*supTask).progressSec":          1,
	"experiments.Table2":                   1,
	"experiments.balanceRun":               1,
	"experiments.fig1Scenario":             1,
	"experiments.newFig1Testbed.func3.1.1": 1,
	"experiments.quantile":                 1,
	"guest.(*NativeCPU).recompute":         1,
	"hostos.(*Host).rebalance":             6,
	"hostos.(*Process).Exit":               1,
	"sim.(*RNG).Normal":                    5,
	"sim.(*Stat).Add":                      1,
	"trace.Generate":                       3,
	"vmm.(*VM).recompute":                  4,
}

// TestArm64FusedOps cross-compiles gridbench for arm64 and counts the
// fused multiply-adds in each function of the module's own packages.
func TestArm64FusedOps(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles gridbench for arm64 and disassembles it")
	}
	bin := filepath.Join(t.TempDir(), "gridbench-arm64")
	build := exec.Command("go", "build", "-o", bin, "./cmd/gridbench")
	build.Env = append(os.Environ(), "GOARCH=arm64")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("GOARCH=arm64 go build: %v\n%s", err, out)
	}
	dump, err := exec.Command("go", "tool", "objdump", bin).Output()
	if err != nil {
		t.Fatalf("go tool objdump: %v", err)
	}
	if !bytes.Contains(dump, []byte("TEXT vmgrid/")) {
		t.Fatal("objdump lists no vmgrid function")
	}
	got := fusedOpsByFunc(t, dump)
	var names []string
	for name := range got {
		names = append(names, name)
	}
	for name := range fusedOps {
		if _, ok := got[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		switch want, n := fusedOps[name], got[name]; {
		case want == 0:
			t.Errorf("%s: %d fused multiply-adds; round each product with float64(...) before adding it", name, n)
		case n != want:
			t.Errorf("%s: %d fused multiply-adds, listed %d: set its count in fusedOps (or drop it at 0)", name, n, want)
		}
	}
}

var fusedOp = regexp.MustCompile(`\b(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b`)

// fusedOpsByFunc counts the fused ops of each vmgrid function in an
// objdump listing, keyed by the name below "vmgrid/internal/" or
// "vmgrid/".
func fusedOpsByFunc(t *testing.T, dump []byte) map[string]int {
	t.Helper()
	counts := map[string]int{}
	var fn string
	sc := bufio.NewScanner(bytes.NewReader(dump))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "TEXT "); ok {
			fn = ""
			if sym, _, _ := strings.Cut(rest, " "); strings.HasPrefix(sym, "vmgrid/") {
				sym = strings.TrimSuffix(sym, "(SB)")
				sym = strings.TrimPrefix(sym, "vmgrid/")
				fn = strings.TrimPrefix(sym, "internal/")
			}
			continue
		}
		if fn != "" && fusedOp.MatchString(line) {
			counts[fn]++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return counts
}
