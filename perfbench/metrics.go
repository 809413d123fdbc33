package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metric is one reported number. The lists below are the benchmark's
// contract and must match BENCHMARK.json (TestBenchmarkJSONMatchesMetrics
// checks it).
type metric struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Moves names the end-to-end metric and workload a per-layer metric
	// should move; "guard" marks simulated output that a change to host
	// performance must leave identical.
	Moves string
}

// endToEnd is what a user of gridbench or vmgridd sees, reported on every
// workload with tracing off. One unit of work is a pass: one worker
// process running the workload's experiment calls (paper, resilience),
// or one fresh daemon serving a fixed number of session lifecycles
// (daemon).
var endToEnd = []metric{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
}

// daemonEndToEnd is reported by the daemon workload only, after endToEnd:
// request latency, which a simulator pass, a single request, does not
// have. BENCHMARK.json does not gate the daemon workload, so these are
// not in it.
var daemonEndToEnd = []metric{
	{Name: "write_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "write_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "read_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer comes from the traced run (-trace 1), which sweeps every layer
// whatever the workload.
var perLayer = []metric{
	{Name: "experiments.fig1.wall_s", Unit: "s", Better: "lower", Moves: "wall_s,cpu_s@paper"},
	{Name: "experiments.table1.wall_s", Unit: "s", Better: "lower", Moves: "wall_s,cpu_s@paper"},
	{Name: "experiments.table2.wall_s", Unit: "s", Better: "lower", Moves: "wall_s,cpu_s@paper"},
	{Name: "experiments.fig1.alloc_mb", Unit: "MB", Better: "lower", Moves: "alloc_mb@paper"},
	{Name: "experiments.table1.alloc_mb", Unit: "MB", Better: "lower", Moves: "alloc_mb@paper"},
	{Name: "experiments.table2.alloc_mb", Unit: "MB", Better: "lower", Moves: "alloc_mb@paper"},
	{Name: "experiments.recovery.wall_s", Unit: "s", Better: "lower", Moves: "wall_s@resilience"},
	{Name: "experiments.partition.wall_s", Unit: "s", Better: "lower", Moves: "wall_s@resilience"},
	{Name: "experiments.balance.wall_s", Unit: "s", Better: "lower", Moves: "wall_s@resilience"},
	{Name: "experiments.delta.wall_s", Unit: "s", Better: "lower", Moves: "wall_s@resilience"},
	{Name: "experiments.recovery.alloc_mb", Unit: "MB", Better: "lower", Moves: "alloc_mb@resilience"},
	{Name: "experiments.partition.alloc_mb", Unit: "MB", Better: "lower", Moves: "alloc_mb@resilience"},
	{Name: "experiments.balance.alloc_mb", Unit: "MB", Better: "lower", Moves: "alloc_mb@resilience"},
	{Name: "experiments.delta.alloc_mb", Unit: "MB", Better: "lower", Moves: "alloc_mb@resilience"},
	{Name: "experiments.parallel_eff", Unit: "ratio", Better: "higher", Moves: "wall_s@paper,resilience"},
	{Name: "obs.trace_overhead", Unit: "ratio", Better: "lower", Moves: "write_p50_ms@daemon"},
	{Name: "vfs.rpcs", Unit: "count", Better: "lower", Moves: "wall_s@paper"},
	{Name: "vfs.retries", Unit: "count", Better: "lower", Moves: "wall_s@paper"},
	{Name: "gram.submissions", Unit: "count", Better: "lower", Moves: "wall_s@paper"},
	{Name: "core.sessions.ready", Unit: "count", Better: "higher", Moves: "wall_s@paper"},
	{Name: "table2.path.vfs-wait_s", Unit: "s", Better: "lower", Moves: "guard"},
	{Name: "table2.path.cpu_s", Unit: "s", Better: "lower", Moves: "guard"},
	{Name: "table2.path.rpc_s", Unit: "s", Better: "lower", Moves: "guard"},
	{Name: "table2.path.phase_s", Unit: "s", Better: "lower", Moves: "guard"},
	{Name: "table2.path.staging_s", Unit: "s", Better: "lower", Moves: "guard"},
	{Name: "sim.event_ns", Unit: "ns", Better: "lower", Moves: "wall_s@paper,resilience"},
	{Name: "netsim.send_ns", Unit: "ns", Better: "lower", Moves: "wall_s@paper"},
	{Name: "vfs.read_hit_ns", Unit: "ns", Better: "lower", Moves: "wall_s@paper"},
	{Name: "vfs.read_miss_ns", Unit: "ns", Better: "lower", Moves: "wall_s@paper"},
	{Name: "storage.copy_ns", Unit: "ns", Better: "lower", Moves: "wall_s@paper"},
	{Name: "gram.stage_whole_ns", Unit: "ns", Better: "lower", Moves: "wall_s@resilience,write_p50_ms@daemon"},
	{Name: "gram.stage_cold_ns", Unit: "ns", Better: "lower", Moves: "wall_s@resilience,write_p50_ms@daemon"},
	{Name: "gram.stage_warm_ns", Unit: "ns", Better: "lower", Moves: "wall_s@resilience,write_p50_ms@daemon"},
	{Name: "gis.quorum_write_ns", Unit: "ns", Better: "lower", Moves: "wall_s@resilience"},
	{Name: "placement.pick_ns", Unit: "ns", Better: "lower", Moves: "wall_s@resilience,write_p50_ms@daemon"},
	{Name: "telemetry.scrape_ns", Unit: "ns", Better: "lower", Moves: "write_p50_ms@daemon"},
	{Name: "obs.span_ns", Unit: "ns", Better: "lower", Moves: "write_p50_ms@daemon"},
	{Name: "delta.hit_rate", Unit: "ratio", Better: "higher", Moves: "guard"},
	{Name: "delta.ckpt_wire_mb", Unit: "MB", Better: "lower", Moves: "guard"},
	{Name: "recovery.mttr_s", Unit: "s", Better: "lower", Moves: "guard"},
	{Name: "balance.migrations", Unit: "count", Better: "lower", Moves: "guard"},
	{Name: "partition.minority_writes", Unit: "count", Better: "lower", Moves: "guard"},
	{Name: "wire.new-session.p50_ms", Unit: "ms", Better: "lower", Moves: "write_p50_ms,write_p99_ms@daemon"},
	{Name: "wire.run.p50_ms", Unit: "ms", Better: "lower", Moves: "write_p50_ms,write_p99_ms@daemon"},
	{Name: "wire.migrate.p50_ms", Unit: "ms", Better: "lower", Moves: "write_p50_ms,write_p99_ms@daemon"},
	{Name: "wire.hibernate.p50_ms", Unit: "ms", Better: "lower", Moves: "write_p50_ms,write_p99_ms@daemon"},
	{Name: "wire.wake.p50_ms", Unit: "ms", Better: "lower", Moves: "write_p50_ms,write_p99_ms@daemon"},
	{Name: "wire.shutdown.p50_ms", Unit: "ms", Better: "lower", Moves: "write_p50_ms,write_p99_ms@daemon"},
	{Name: "wire.top.p50_ms", Unit: "ms", Better: "lower", Moves: "read_p50_ms,read_p99_ms@daemon"},
	{Name: "wire.status.p50_ms", Unit: "ms", Better: "lower", Moves: "read_p50_ms,read_p99_ms@daemon"},
	{Name: "wire.ping.p50_us", Unit: "us", Better: "lower", Moves: "read_p50_ms,read_p99_ms@daemon"},
	{Name: "core.aging_ratio", Unit: "ratio", Better: "lower", Moves: "ops_per_s,write_p50_ms@daemon"},
	{Name: "wire.read_lag_ms", Unit: "ms", Better: "lower", Moves: "validity of read_p99_ms@daemon"},
	{Name: "obs.spans_retained", Unit: "count", Better: "lower", Moves: "peak_rss_mb,core.aging_ratio@daemon"},
	{Name: "telemetry.scrapes", Unit: "count", Better: "lower", Moves: "peak_rss_mb,core.aging_ratio@daemon"},
	{Name: "sim.virtual_s", Unit: "s", Better: "lower", Moves: "peak_rss_mb,core.aging_ratio@daemon"},
	{Name: "chunk.hit_rate", Unit: "ratio", Better: "higher", Moves: "peak_rss_mb,core.aging_ratio@daemon"},
}

// result gathers one run's metrics and its operation accounting:
// attempted counts operations and output checks, failed those that
// errored or did not match.
type result struct {
	attempted, failed int
	values            map[string]float64
	details           map[string]string
}

func newResult() *result {
	return &result{values: map[string]float64{}, details: map[string]string{}}
}

// set records a metric value and an optional human-readable detail (a
// sample summary, or the reason a value is a fallback).
func (r *result) set(name string, v float64, detail string) {
	r.values[name] = v
	if detail != "" {
		r.details[name] = detail
	}
}

// tail99 returns p99 of ms when at least minBeyond samples lie beyond it;
// otherwise the highest percentile below that has, or the median when
// none has.
func tail99(ms []float64) (v, pct float64) {
	sorted := sortedCopy(ms)
	for _, p := range tailLadder {
		if p <= 99 && reportable(p, len(sorted)) {
			v, _ = percentile(sorted, p)
			return v, p
		}
	}
	v, _ = percentile(sorted, 50)
	return v, 50
}

// check counts one output check and reports its failure on w.
func (r *result) check(w io.Writer, what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(w, "CHECK FAILED %s: %v\n", what, err)
	}
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

// emit prints one aligned line per metric in specs, the error rate, and
// then the machine-readable result as the last line. A metric in specs
// that the run did not produce is an error: the result must carry every
// metric.
func (r *result) emit(w io.Writer, specs []metric) error {
	out := jsonResult{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]jsonValue{},
	}
	for _, m := range specs {
		v, ok := r.values[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out.Metrics[m.Name] = jsonValue{Value: v, Unit: m.Unit}
		line := fmt.Sprintf("%-32s %14.6g %-6s", m.Name, v, m.Unit)
		if d := r.details[m.Name]; d != "" {
			line += "  " + d
		}
		if m.Moves != "" {
			line += "  [moves " + m.Moves + "]"
		}
		fmt.Fprintln(w, line)
	}
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-32s %14.6g %-6s  failed %d of %d attempted\n", "error_rate", rate, "ratio", r.failed, r.attempted)
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
