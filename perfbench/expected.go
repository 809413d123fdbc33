package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// expectedPath holds the SHA-256 of every simulator table the benchmark
// runs, per simulation seed, recorded from the commit that introduced
// the benchmark with `pbench -record`. A perf-only change must keep every
// table byte-identical, so any drift is an output-check failure.
const expectedPath = "perfbench/expected.json"

// table1GoldenPath is gridbench's committed Table 1 golden (seed 1,
// rendered as gridbench prints it after its header line).
const table1GoldenPath = "cmd/gridbench/testdata/table1.golden"

// recordedSeeds is how many simulation seeds expected.json covers.
const recordedSeeds = 16

// simSeed maps the benchmark's --seed onto a recorded simulation seed:
// seeds 1..recordedSeeds map to themselves, others wrap around.
func simSeed(seed int64) uint64 {
	m := (seed - 1) % recordedSeeds
	if m < 0 {
		m += recordedSeeds
	}
	return uint64(m) + 1
}

// expected is the parsed record: simulation seed -> experiment -> hash.
type expected map[string]map[string]string

func loadExpected(root string) (expected, error) {
	b, err := os.ReadFile(filepath.Join(root, expectedPath))
	if err != nil {
		return nil, fmt.Errorf("expected tables: %w", err)
	}
	var e expected
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("expected tables: %w", err)
	}
	return e, nil
}

func tableHash(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// check compares one rendered table against the record for its seed.
func (e expected) check(seed uint64, exp, text string) error {
	want, ok := e[strconv.FormatUint(seed, 10)][exp]
	if !ok {
		return fmt.Errorf("%s: no expected output recorded for simulation seed %d", exp, seed)
	}
	if got := tableHash(text); got != want {
		return fmt.Errorf("%s at simulation seed %d: table hash %.12s, recorded %.12s:\n%s", exp, seed, got, want, text)
	}
	return nil
}

// checkTable1Golden compares a seed-1 Table 1 rendering with gridbench's
// committed golden, which frames the table as gridbench prints it.
func checkTable1Golden(golden []byte, text string) error {
	if got := "\n" + text + "\n"; got != string(golden) {
		return fmt.Errorf("table1 differs from %s:\n%s", table1GoldenPath, text)
	}
	return nil
}

// record regenerates expected.json for simulation seeds 1..recordedSeeds
// by running every simulator call once per seed.
func record(root string, workers int) error {
	e := expected{}
	for s := uint64(1); s <= recordedSeeds; s++ {
		hashes := map[string]string{}
		for _, name := range []string{"paper", "resilience"} {
			for _, c := range simWorkloads[name] {
				out, err := c.run(s, workers, nil)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", c.name, s, err)
				}
				hashes[c.name] = tableHash(out.text)
			}
		}
		e[strconv.FormatUint(s, 10)] = hashes
		fmt.Fprintf(os.Stderr, "recorded simulation seed %d\n", s)
	}
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, expectedPath), append(b, '\n'), 0o644)
}
