package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"vmgrid/internal/obs"
)

// overheadRounds is how many untraced/traced pairs obs.trace_overhead
// takes the median of.
const overheadRounds = 3

// callStat is one experiment call timed in process.
type callStat struct {
	wallS, allocMB float64
	out            simOut
}

// timeCall runs one experiment call in process, timing it and counting
// the Go heap bytes it allocates, and checks its table.
func timeCall(res *result, w io.Writer, chk *tableChecker, c simCall, workers int, ts *obs.TraceSet) (callStat, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	out, err := c.run(chk.seed, workers, ts)
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	if err != nil {
		return callStat{}, fmt.Errorf("%s: %w", c.name, err)
	}
	res.check(w, fmt.Sprintf("%s table (workers=%d, traced=%v)", c.name, workers, ts != nil), chk.check(c.name, out.text))
	return callStat{wallS: wall.Seconds(), allocMB: float64(after.TotalAlloc-before.TotalAlloc) / 1e6, out: out}, nil
}

func findCall(name string) simCall {
	for _, calls := range simWorkloads {
		for _, c := range calls {
			if c.name == name {
				return c
			}
		}
	}
	panic("no experiment call " + name)
}

// traceRun is the traced run: it times each layer from outside, once,
// whatever the workload, and reads the counters the program exposes.
func traceRun(w io.Writer, o options) (*result, error) {
	if o.workload != "paper" && o.workload != "resilience" && o.workload != "daemon" {
		return nil, fmt.Errorf("unknown workload %q (want paper, resilience or daemon)", o.workload)
	}
	res := newResult()
	chk, err := newTableChecker(o.root, simSeed(o.seed))
	if err != nil {
		return nil, err
	}
	if err := experimentLayers(res, w, chk); err != nil {
		return nil, err
	}
	if err := observedLayers(res, w, chk); err != nil {
		return nil, err
	}
	if err := runMicros(res, chk.seed); err != nil {
		return nil, err
	}
	if err := daemonLayers(res, w, o); err != nil {
		return nil, err
	}
	return res, nil
}

// experimentLayers times every experiment call at two workers and at
// one, and reads the resilience rows' simulated guard values.
func experimentLayers(res *result, w io.Writer, chk *tableChecker) error {
	var wall1, wall2 float64
	for _, workload := range []string{"paper", "resilience"} {
		for _, c := range simWorkloads[workload] {
			two, err := timeCall(res, w, chk, c, simWorkers, nil)
			if err != nil {
				return err
			}
			one, err := timeCall(res, w, chk, c, 1, nil)
			if err != nil {
				return err
			}
			wall1 += one.wallS
			wall2 += two.wallS
			res.set("experiments."+c.name+".wall_s", two.wallS, fmt.Sprintf("%d workers; %.4g s at 1", simWorkers, one.wallS))
			res.set("experiments."+c.name+".alloc_mb", two.allocMB, "")
			for name, v := range two.out.guards {
				res.set(name, v, "simulated")
			}
		}
	}
	res.set("experiments.parallel_eff", wall1/(simWorkers*wall2),
		fmt.Sprintf("%.4g s at 1 worker / (%d x %.4g s at %d)", wall1, simWorkers, wall2, simWorkers))
	return nil
}

// observedLayers compares fig1+table2 with and without a trace set, and
// reads table2's merged counters and critical paths from the traced run.
func observedLayers(res *result, w io.Writer, chk *tableChecker) error {
	var plain, traced []float64
	var ts *obs.TraceSet
	for r := 0; r < overheadRounds; r++ {
		ts = obs.NewTraceSet()
		var p, t float64
		for _, name := range []string{"fig1", "table2"} {
			c := findCall(name)
			off, err := timeCall(res, w, chk, c, simWorkers, nil)
			if err != nil {
				return err
			}
			on, err := timeCall(res, w, chk, c, simWorkers, ts)
			if err != nil {
				return err
			}
			p += off.wallS
			t += on.wallS
		}
		plain = append(plain, p)
		traced = append(traced, t)
	}
	res.set("obs.trace_overhead", median(traced)/median(plain),
		fmt.Sprintf("fig1+table2 median %.4g s traced / %.4g s untraced", median(traced), median(plain)))

	// The last round's set holds fig1's tracers and then table2's.
	table2 := obs.NewTraceSet()
	for _, e := range ts.Entries() {
		if strings.HasPrefix(e.Label, "table2/") {
			table2.Add(e.Label, e.Tracer)
		}
	}
	counters := map[string]float64{}
	for _, c := range table2.MergedMetrics().Counters {
		counters[c.Name] = c.Value
	}
	for _, name := range []string{"vfs.rpcs", "vfs.retries", "gram.submissions", "core.sessions.ready"} {
		res.set(name, counters[name], "table2, merged over samples")
	}
	path := map[string]float64{}
	for _, e := range table2.Entries() {
		spans := e.Tracer.Spans()
		for _, root := range obs.Roots(spans) {
			rep := obs.Analyze(spans, root.Context())
			if rep == nil {
				continue
			}
			for _, a := range rep.Attribution {
				path[a.Resource] += a.SelfUs.Seconds()
			}
		}
	}
	for _, resource := range []string{"vfs-wait", "cpu", "rpc", "phase", "staging"} {
		res.set("table2.path."+resource+"_s", path[resource], "critical-path self time summed over cells")
	}
	return nil
}

// daemonLayers runs one daemon pass and reports per-op latencies, how
// the daemon aged over the pass, how late the reader ran, and the
// counters the daemon serves at the end.
func daemonLayers(res *result, w io.Writer, o options) error {
	p, err := runDaemonPass(o.vmgridd, o.seed, lifecyclesPerPass, true)
	if err != nil {
		return err
	}
	res.attempted += p.attempted
	res.failed += p.failed
	for _, f := range p.failures {
		fmt.Fprintln(w, "CHECK FAILED", f)
	}
	for _, op := range []string{"new-session", "run", "migrate", "hibernate", "wake", "shutdown"} {
		s := summarize(p.writeMs[op])
		res.set("wire."+op+".p50_ms", s.P50, s.String())
	}
	service := map[string][]float64{}
	var lag []float64
	for _, r := range p.reads {
		if r.err == nil {
			op := readOps[r.i%len(readOps)]
			service[op] = append(service[op], float64(r.service)/1e6)
		}
		lag = append(lag, float64(r.lag)/1e6)
	}
	for _, op := range []string{"top", "status"} {
		s := summarize(service[op])
		res.set("wire."+op+".p50_ms", s.P50, "service time: "+s.String())
	}
	ping := summarize(service["ping"])
	res.set("wire.ping.p50_us", ping.P50*1000, "service time (ms): "+ping.String())
	// The tail with minBeyond samples beyond it: one pass has a few
	// hundred reads, too few for p99.
	lagS := summarize(lag)
	res.set("wire.read_lag_ms", lagS.Tail, fmt.Sprintf("p%g of send time minus due time: %s", lagS.TailPct, lagS))
	res.set("core.aging_ratio", agingRatio(p.lifecycleMs), fmt.Sprintf("over %d lifecycles", len(p.lifecycleMs)))
	res.set("obs.spans_retained", float64(p.spans), "")
	res.set("telemetry.scrapes", float64(p.scrapes), "")
	res.set("sim.virtual_s", p.virtualS, "")
	res.set("chunk.hit_rate", p.chunkRate, "")
	return nil
}

// agingRatio is the median lifecycle time of the last tenth of a pass
// over that of the first tenth.
func agingRatio(lifecycleMs []float64) float64 {
	tenth := len(lifecycleMs) / 10
	if tenth == 0 {
		return 0
	}
	return median(lifecycleMs[len(lifecycleMs)-tenth:]) / median(lifecycleMs[:tenth])
}
