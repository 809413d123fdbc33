// Command gridbench regenerates the paper's evaluation — Figure 1,
// Table 1, Table 2 — and the repository's ablations, printing each as an
// aligned text table.
//
// Usage:
//
//	gridbench [-exp all|fig1|table1|table2|ablation-staging|ablation-cache|
//	           ablation-sched|ablation-migration|ablation-overlay|
//	           ablation-rps|ablation-recovery|ablation-partition|
//	           ablation-balance|ablation-delta]
//	          [-seed N] [-samples N] [-parallel N] [-format text|csv]
//	          [-trace out.json] [-telemetry out.json] [-incidents out.json]
//	          [-pprof cpu.out] [-pprof-mem mem.out]
//
// The experiments and their order come from experiments.Experiments.
// -samples overrides the sample count of the experiments that take one;
// naming a single fixed-design experiment with -samples is an error.
//
// Independent simulation samples fan out across -parallel worker
// goroutines (default: one per CPU). The tables are bit-identical for
// every worker count; -parallel only changes wall-clock time.
//
// -trace records the fig1 and table2 samples with the obs layer and
// writes one Chrome trace-event JSON file (load it in chrome://tracing
// or Perfetto), plus a per-phase latency table decomposing each cell's
// startup wall clock and a critical-path attribution table: a
// deepest-cover walk of every session's causal span tree, attributing
// each cell's startup seconds to resources (vfs-wait, cpu, rpc,
// staging, ...). The trace bytes, like the tables, are identical at
// every -parallel value.
//
// -incidents runs the ablation-recovery sweep with a flight recorder on
// every grid and writes one deterministic JSON file of the incident
// bundles — one "recovery" incident per failover, each sealed with a
// postmortem report attributing the outage to detection, restore, and
// replay. Only ablation-recovery records incidents.
//
// -telemetry runs the fig1 and table2 samples with the telemetry
// pipeline attached — per-second scrapes of the node, session, and
// task gauges with the standard SLO rules armed — and writes one
// deterministic JSON file of every sample's time series and alert
// firings. Like -trace, the bytes are identical at every -parallel
// value.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"vmgrid/internal/experiments"
	"vmgrid/internal/obs"
	"vmgrid/internal/sim"
	"vmgrid/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gridbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gridbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment to run")
	seed := fs.Uint64("seed", 1, "deterministic seed")
	samples := fs.Int("samples", 0, "override sample count (0 = paper default)")
	format := fs.String("format", "text", "output format: text or csv")
	parallel := fs.Int("parallel", 0, "worker goroutines per experiment (0 = one per CPU)")
	tracePath := fs.String("trace", "", "write Chrome trace JSON of fig1/table2 samples to this file")
	telemetryPath := fs.String("telemetry", "", "write telemetry time-series/alert JSON of fig1/table2 samples to this file")
	incidentsPath := fs.String("incidents", "", "write incident-bundle JSON of ablation-recovery runs to this file")
	pprofPath := fs.String("pprof", "", "write a CPU profile of the run to this file (go tool pprof)")
	pprofMemPath := fs.String("pprof-mem", "", "write an allocation profile at exit to this file (go tool pprof)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	selected := experiments.Experiments
	if *exp != "all" {
		e, ok := experiments.Lookup(*exp)
		if !ok {
			names := []string{"all"}
			for _, e := range experiments.Experiments {
				names = append(names, e.Name)
			}
			return fmt.Errorf("unknown experiment %q (want one of: %s)", *exp, strings.Join(names, ", "))
		}
		if *samples > 0 && !e.Samples {
			return fmt.Errorf("%s has a fixed design and takes no -samples", e.Name)
		}
		selected = []experiments.Experiment{e}
	}
	if *pprofPath != "" {
		f, err := os.Create(*pprofPath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close()
		}()
	}
	if *pprofMemPath != "" {
		path := *pprofMemPath
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gridbench: pprof-mem:", err)
				return
			}
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "gridbench: pprof-mem:", err)
			}
			_ = f.Close()
		}()
	}
	var traceSet *obs.TraceSet
	if *tracePath != "" {
		traceSet = obs.NewTraceSet()
	}
	var telemetrySet *telemetry.Set
	if *telemetryPath != "" {
		telemetrySet = telemetry.NewSet()
	}
	var incidentSet *obs.IncidentSet
	if *incidentsPath != "" {
		incidentSet = obs.NewIncidentSet()
	}
	var emit func(*experiments.Table)
	switch *format {
	case "text":
		emit = func(t *experiments.Table) { fmt.Println(t) }
	case "csv":
		emit = func(t *experiments.Table) { fmt.Print(t.CSV()) }
	default:
		return fmt.Errorf("unknown format %q (want text or csv)", *format)
	}
	workers := experiments.DefaultWorkers(*parallel)
	// The run header makes recorded results reproducible: rerun with the
	// same seed and any -parallel value to regenerate them byte for byte.
	fmt.Printf("# gridbench seed=%d parallel=%d cpus=%d %s\n\n",
		*seed, workers, runtime.NumCPU(), runtime.Version())

	ctx := experiments.Ctx{
		Seed: *seed, Samples: *samples, Workers: workers,
		Trace: traceSet, Telemetry: telemetrySet, Incidents: incidentSet,
	}
	for _, e := range selected {
		t, _, err := e.Run(ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		emit(t)
	}
	if ok, err := writeSet(*tracePath, traceSet.Len(), traceSet.WriteChrome,
		"-trace set but the selected experiment records no traces (only fig1 and table2 do)"); err != nil {
		return err
	} else if ok {
		emit(phaseTable(traceSet))
		emit(criticalPathTable(traceSet))
		fmt.Printf("# trace: %d samples -> %s\n", traceSet.Len(), *tracePath)
	}
	if ok, err := writeSet(*telemetryPath, telemetrySet.Len(), telemetrySet.WriteJSON,
		"-telemetry set but the selected experiment records no telemetry (only fig1 and table2 do)"); err != nil {
		return err
	} else if ok {
		fmt.Printf("# telemetry: %d samples -> %s\n", telemetrySet.Len(), *telemetryPath)
	}
	if ok, err := writeSet(*incidentsPath, incidentSet.Len(), incidentSet.WriteJSON,
		"-incidents set but the selected experiment records no incidents (only ablation-recovery does)"); err != nil {
		return err
	} else if ok {
		fmt.Printf("# incidents: %d bundles over %d runs -> %s\n", incidentSet.Total(), incidentSet.Len(), *incidentsPath)
	}
	return nil
}

// writeSet writes a collected set of n entries to path with write and
// reports whether it did. It is a no-op without the flag (empty path),
// and prints the warning when the selected experiment recorded nothing.
func writeSet(path string, n int, write func(io.Writer) error, warning string) (bool, error) {
	if path == "" {
		return false, nil
	}
	if n == 0 {
		fmt.Fprintln(os.Stderr, "gridbench: "+warning)
		return false, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return false, err
	}
	if err := write(f); err != nil {
		_ = f.Close()
		return false, err
	}
	return true, f.Close()
}

// phaseTable aggregates the set's lifecycle spans per experiment cell:
// sample labels end in "/<index>", which is stripped so a cell's samples
// fold into one row per phase. Only the startup decomposition ("phase"
// spans from core, "vmm" spans from the monitor) is tabulated; RPC and
// supervisor spans stay in the JSON.
func phaseTable(ts *obs.TraceSet) *experiments.Table {
	t := &experiments.Table{
		Title:  "Per-phase startup latency (simulated seconds)",
		Note:   "phase spans partition submitted->ready exactly; mean over a cell's samples",
		Header: []string{"cell", "cat", "phase", "count", "mean", "max", "total"},
	}
	type key struct{ cell, cat, name string }
	idx := map[key]int{}
	type row struct {
		key   key
		stat  obs.PhaseStat
		count int
	}
	var rows []row
	for _, p := range ts.PhaseStats() {
		if p.Cat != "phase" && p.Cat != "vmm" {
			continue
		}
		k := key{cellOf(p.Label), p.Cat, p.Name}
		i, ok := idx[k]
		if !ok {
			i = len(rows)
			idx[k] = i
			rows = append(rows, row{key: k})
		}
		rows[i].stat.Total += p.Total
		if p.Max > rows[i].stat.Max {
			rows[i].stat.Max = p.Max
		}
		rows[i].count += p.Count
	}
	for _, r := range rows {
		mean := 0.0
		if r.count > 0 {
			mean = r.stat.Total.Seconds() / float64(r.count)
		}
		t.Rows = append(t.Rows, []string{
			r.key.cell, r.key.cat, r.key.name,
			fmt.Sprintf("%d", r.count),
			fmt.Sprintf("%.3f", mean),
			fmt.Sprintf("%.3f", r.stat.Max.Seconds()),
			fmt.Sprintf("%.3f", r.stat.Total.Seconds()),
		})
	}
	return t
}

// criticalPathTable runs the postmortem analyzer over every recorded
// sample: each session root's causal tree is walked deepest-cover, and
// the resulting attributions are summed per experiment cell. A cell
// whose samples hold no session root (Figure 1 starts its VMs outside
// a grid session) gets one row that says so, after the attributed
// rows. Entries are visited in Add order and attributions are
// pre-sorted by the analyzer, so the rows — like every gridbench
// table — are identical at any -parallel value.
func criticalPathTable(ts *obs.TraceSet) *experiments.Table {
	t := &experiments.Table{
		Title:  "Critical-path attribution (simulated seconds)",
		Note:   "deepest-cover walk of each session's causal span tree; self time summed over a cell's samples",
		Header: []string{"cell", "resource", "cat", "name", "self", "share"},
	}
	type key struct{ cell, resource, cat, name string }
	idx := map[key]int{}
	type row struct {
		key  key
		self sim.Duration
	}
	var rows []row
	total := map[string]sim.Duration{} // has a key for each cell with a root
	for _, e := range ts.Entries() {
		spans := e.Tracer.Spans()
		cell := cellOf(e.Label)
		for _, root := range obs.Roots(spans) {
			rep := obs.Analyze(spans, obs.SpanContext{Trace: root.Trace, Span: root.ID})
			if rep == nil {
				continue
			}
			total[cell] += rep.TotalUs
			for _, a := range rep.Attribution {
				k := key{cell, a.Resource, a.Cat, a.Name}
				i, ok := idx[k]
				if !ok {
					i = len(rows)
					idx[k] = i
					rows = append(rows, row{key: k})
				}
				rows[i].self += a.SelfUs
			}
		}
	}
	for _, r := range rows {
		share := 0.0
		if total[r.key.cell] > 0 {
			share = float64(r.self) / float64(total[r.key.cell])
		}
		t.Rows = append(t.Rows, []string{
			r.key.cell, r.key.resource, r.key.cat, r.key.name,
			fmt.Sprintf("%.3f", r.self.Seconds()),
			fmt.Sprintf("%.1f%%", share*100),
		})
	}
	for _, e := range ts.Entries() {
		cell := cellOf(e.Label)
		if _, rooted := total[cell]; !rooted {
			total[cell] = 0 // one row per cell
			t.Rows = append(t.Rows, []string{cell, "-", "-", "no session root", "-", "-"})
		}
	}
	return t
}

// cellOf strips a trailing "/<sample index>" from a trace label.
func cellOf(label string) string {
	i := strings.LastIndex(label, "/")
	if i < 0 {
		return label
	}
	for _, c := range label[i+1:] {
		if c < '0' || c > '9' {
			return label
		}
	}
	if i+1 == len(label) {
		return label
	}
	return label[:i]
}
