package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"vmgrid/internal/experiments"
	"vmgrid/internal/obs"
)

// simWorkers is the worker count of the traced run's simulator calls:
// one per CPU of the two-CPU machine the benchmark was sized on.
const simWorkers = 2

// passWorkers is the worker count of an end-to-end pass, which also runs
// with GOMAXPROCS 1. A two-worker pass waits for whichever worker the
// host delays, and on a shared two-CPU machine its median over a run
// moved about twice as much from run to run as a one-thread pass did.
// Whether the simulators scale is the traced run's parallel_eff.
const passWorkers = 1

// resilienceSamples is the reduced per-cell sample count of the
// resilience ablations.
const resilienceSamples = 1

// simOut is one experiment call's rendered table, the number of
// simulation samples it ran, and its simulated guard values.
type simOut struct {
	text    string
	samples int
	guards  map[string]float64
}

// simCall is one public experiments runner call, as gridbench makes it.
type simCall struct {
	name string
	run  func(seed uint64, workers int, ts *obs.TraceSet) (simOut, error)
}

func rendered(t *experiments.Table, samples int) simOut {
	return simOut{text: t.String(), samples: samples}
}

// simWorkloads lists the calls of one pass of each simulator workload:
// paper is Figure 1, Table 1 and Table 2 at the paper's sample counts;
// resilience is Ablations G-J at resilienceSamples per cell. Only fig1
// and table2 accept a trace set.
var simWorkloads = map[string][]simCall{
	"paper": {
		{"fig1", func(seed uint64, workers int, ts *obs.TraceSet) (simOut, error) {
			cfg := experiments.DefaultFig1Config()
			cfg.Seed, cfg.Workers, cfg.Trace = seed, workers, ts
			rows, err := experiments.Figure1(cfg)
			if err != nil {
				return simOut{}, err
			}
			return rendered(experiments.Figure1Table(rows), len(rows)*cfg.Samples), nil
		}},
		{"table1", func(seed uint64, workers int, _ *obs.TraceSet) (simOut, error) {
			rows, err := experiments.Table1(seed, workers)
			if err != nil {
				return simOut{}, err
			}
			return rendered(experiments.Table1Table(rows), len(rows)), nil
		}},
		{"table2", func(seed uint64, workers int, ts *obs.TraceSet) (simOut, error) {
			cfg := experiments.DefaultTable2Config()
			cfg.Seed, cfg.Workers, cfg.Trace = seed, workers, ts
			rows, err := experiments.Table2(cfg)
			if err != nil {
				return simOut{}, err
			}
			return rendered(experiments.Table2Table(rows), len(rows)*cfg.Samples), nil
		}},
	},
	"resilience": {
		{"recovery", func(seed uint64, workers int, _ *obs.TraceSet) (simOut, error) {
			rows, err := experiments.AblationRecovery(seed, resilienceSamples, workers)
			if err != nil {
				return simOut{}, err
			}
			out := rendered(experiments.RecoveryTable(rows), len(rows)*resilienceSamples)
			mttr := 0.0
			for _, r := range rows {
				mttr += r.MTTRSec
			}
			out.guards = map[string]float64{"recovery.mttr_s": mttr / float64(len(rows))}
			return out, nil
		}},
		{"partition", func(seed uint64, workers int, _ *obs.TraceSet) (simOut, error) {
			rows, err := experiments.AblationPartition(seed, resilienceSamples, workers)
			if err != nil {
				return simOut{}, err
			}
			out := rendered(experiments.PartitionTable(rows), len(rows)*resilienceSamples)
			writes := 0.0
			for _, r := range rows {
				writes += r.MinorityWrites
			}
			out.guards = map[string]float64{"partition.minority_writes": writes}
			return out, nil
		}},
		{"balance", func(seed uint64, workers int, _ *obs.TraceSet) (simOut, error) {
			rows, err := experiments.AblationBalance(seed, resilienceSamples, workers)
			if err != nil {
				return simOut{}, err
			}
			out := rendered(experiments.BalanceTable(rows), len(rows)*resilienceSamples)
			moves := 0.0
			for _, r := range rows {
				moves += r.Migrations
			}
			out.guards = map[string]float64{"balance.migrations": moves}
			return out, nil
		}},
		{"delta", func(seed uint64, workers int, _ *obs.TraceSet) (simOut, error) {
			rows, err := experiments.AblationDelta(seed, resilienceSamples, workers)
			if err != nil {
				return simOut{}, err
			}
			out := rendered(experiments.DeltaTable(rows), len(rows)*resilienceSamples)
			hit, wire := 0.0, 0.0
			for _, r := range rows {
				hit += r.HitRate
				wire += r.CkptWireMB
			}
			out.guards = map[string]float64{
				"delta.hit_rate":     hit / float64(len(rows)),
				"delta.ckpt_wire_mb": wire,
			}
			return out, nil
		}},
	},
}

// tableChecker checks rendered tables against the expected record and,
// at simulation seed 1, Table 1 against gridbench's golden.
type tableChecker struct {
	exp    expected
	seed   uint64
	golden []byte
}

func newTableChecker(root string, seed uint64) (*tableChecker, error) {
	exp, err := loadExpected(root)
	if err != nil {
		return nil, err
	}
	c := &tableChecker{exp: exp, seed: seed}
	if seed == 1 {
		if c.golden, err = os.ReadFile(filepath.Join(root, table1GoldenPath)); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *tableChecker) check(exp, text string) error {
	if err := c.exp.check(c.seed, exp, text); err != nil {
		return err
	}
	if exp == "table1" && c.golden != nil {
		return checkTable1Golden(c.golden, text)
	}
	return nil
}

// passReport is what a simulator worker prints after its pass.
type passReport struct {
	WallS     float64  `json:"wall_s"`      // all calls
	CPUS      float64  `json:"cpu_s"`       // all calls, this process
	CalibS    float64  `json:"calib_s"`     // one calibration slice, mean wall
	CalibCPUS float64  `json:"calib_cpu_s"` // one calibration slice, mean CPU
	AllocMB   float64  `json:"alloc_mb"`    // Go heap bytes allocated by the calls
	Samples   int      `json:"samples"`
	Calls     int      `json:"calls"` // experiment calls and the calibration
	Failures  []string `json:"failures"`
}

// simWorker is the child side of one simulator pass: load the expected
// record, report ready, run every call of the workload once with a
// calibration slice before the first and after each, check each table
// and the calibration's checksum, and print a passReport.
func simWorker(out io.Writer, root, workload string, seed int64) error {
	calls, ok := simWorkloads[workload]
	if !ok {
		return fmt.Errorf("no simulator workload %q", workload)
	}
	ss := simSeed(seed)
	checker, err := newTableChecker(root, ss)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(1)
	fmt.Fprintln(out, "ready")
	rep := passReport{Failures: []string{}}
	var calib timing
	badSum := uint64(0)
	slice := func() {
		var sum uint64
		t := timed(func() { sum = calibrate(calibSteps) })
		calib.wall += t.wall
		calib.cpu += t.cpu
		if sum != calibSum {
			badSum = sum
		}
		runtime.GC() // each call starts on a clean heap
	}
	slice()
	for _, c := range calls {
		var before, after runtime.MemStats
		var res simOut
		runtime.ReadMemStats(&before)
		t := timed(func() { res, err = c.run(ss, passWorkers, nil) })
		runtime.ReadMemStats(&after)
		slice()
		rep.WallS += t.wall
		rep.CPUS += t.cpu
		rep.AllocMB += float64(after.TotalAlloc-before.TotalAlloc) / 1e6
		rep.Calls++
		if err == nil {
			err = checker.check(c.name, res.text)
		}
		if err != nil {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %v", c.name, err))
			continue
		}
		rep.Samples += res.samples
	}
	slices := float64(len(calls) + 1)
	rep.CalibS, rep.CalibCPUS = calib.wall/slices, calib.cpu/slices
	rep.Calls++
	if badSum != 0 {
		rep.Failures = append(rep.Failures, fmt.Sprintf("calibration: checksum %d, want %d", badSum, calibSum))
	}
	return json.NewEncoder(out).Encode(rep)
}

// simPass is one worker process as the harness saw it.
type simPass struct {
	rep    passReport
	setupS float64 // spawn until the worker reported ready
	totalS float64 // spawn until exit
	use    usage
}

// spawnSimPass runs one simulator worker process to completion.
func spawnSimPass(self, root, workload string, seed int64) (simPass, error) {
	cmd := exec.Command(self, "-worker", "-workload", workload,
		"-seed", strconv.FormatInt(seed, 10), "-root", root)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return simPass{}, err
	}
	start := time.Now()
	if err := startChild(cmd); err != nil {
		return simPass{}, err
	}
	var p simPass
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var readErr error
	switch {
	case !sc.Scan():
		readErr = fmt.Errorf("worker exited before it was ready")
	case sc.Text() != "ready":
		readErr = fmt.Errorf("worker said %q, want ready", sc.Text())
	default:
		p.setupS = time.Since(start).Seconds()
		if !sc.Scan() {
			readErr = fmt.Errorf("worker printed no pass report")
		} else if err := json.Unmarshal(sc.Bytes(), &p.rep); err != nil {
			readErr = fmt.Errorf("worker pass report: %w", err)
		}
	}
	if readErr != nil {
		_ = cmd.Process.Kill() // so Wait returns
	}
	_, _ = io.Copy(io.Discard, stdout)
	use, err := waitChild(cmd)
	if readErr != nil {
		return simPass{}, readErr
	}
	if err != nil {
		return simPass{}, err
	}
	if !use.exited {
		return simPass{}, fmt.Errorf("simulator worker failed")
	}
	p.totalS = time.Since(start).Seconds()
	p.use = use
	return p, nil
}

// runSimWorkload runs simulator passes, each in a fresh worker process,
// for the run's time budget (at least minPasses) and reports the
// end-to-end metrics as medians over passes. Every time, and the sample
// rate, is scaled to the reference machine by the pass's own calibration
// (see calib.go); the raw medians are printed beside them.
func runSimWorkload(w io.Writer, o options) (*result, error) {
	res := newResult()
	var (
		walls, cpus, sets, rates           []float64 // calibrated
		rawWalls, rawCPUs, rawSets, calibs []float64
		allocs, rss, totals                []float64
	)
	start := time.Now()
	for len(walls) < minPasses || time.Since(start).Seconds()+median(totals) <= o.seconds {
		p, err := spawnSimPass(o.self, o.root, o.workload, o.seed)
		if err != nil {
			return nil, err
		}
		r := p.rep
		res.attempted += r.Calls
		res.failed += len(r.Failures)
		for _, f := range r.Failures {
			fmt.Fprintln(w, "CHECK FAILED", f)
		}
		if r.WallS <= 0 || r.CalibS <= 0 || r.CalibCPUS <= 0 {
			return nil, fmt.Errorf("%s pass %d: a timing read zero: %+v", o.workload, len(walls)+1, r)
		}
		fmt.Fprintf(os.Stderr, "%s pass %d: wall %.3f s, cpu %.3f s, calibration %.3f s, wall/calibration %.4f\n",
			o.workload, len(walls)+1, r.WallS, r.CPUS, r.CalibS, r.WallS/r.CalibS)
		scale := calibRefS / r.CalibS
		walls = append(walls, r.WallS*scale)
		cpus = append(cpus, r.CPUS*calibRefS/r.CalibCPUS)
		sets = append(sets, p.setupS*scale)
		rates = append(rates, float64(r.Samples)/(r.WallS*scale))
		rawWalls = append(rawWalls, r.WallS)
		rawCPUs = append(rawCPUs, r.CPUS)
		rawSets = append(rawSets, p.setupS)
		calibs = append(calibs, r.CalibS)
		allocs = append(allocs, r.AllocMB)
		rss = append(rss, p.use.rssMB)
		totals = append(totals, p.totalS)
	}
	perPass := fmt.Sprintf("median of %d passes", len(walls))
	raw := func(xs []float64) string {
		return fmt.Sprintf("%s; raw %.4g s, calibration slice %.4g s", perPass, median(xs), median(calibs))
	}
	res.set("wall_s", median(walls), raw(rawWalls))
	res.set("cpu_s", median(cpus), raw(rawCPUs))
	res.set("alloc_mb", median(allocs), perPass)
	res.set("peak_rss_mb", median(rss), perPass+" (worker process)")
	res.set("setup_s", median(sets), raw(rawSets)+": spawn until ready")
	res.set("ops_per_s", median(rates), perPass+": simulation samples per calibrated second")
	return res, nil
}
