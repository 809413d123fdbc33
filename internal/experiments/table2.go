package experiments

import (
	"fmt"

	"vmgrid/internal/core"
	"vmgrid/internal/hostos"
	"vmgrid/internal/obs"
	"vmgrid/internal/sim"
	"vmgrid/internal/telemetry"
	"vmgrid/internal/trace"
	"vmgrid/internal/vmm"
)

// Table2Config parameterizes the startup-latency experiment.
type Table2Config struct {
	Seed    uint64
	Samples int // the paper uses 10
	// Workers bounds concurrent samples; <= 0 means one per CPU.
	// Output is identical for every value.
	Workers int
	// Trace, when non-nil, collects one tracer per sample (in sample
	// order, so the set is byte-identical at any worker count). Leaving
	// it nil keeps the samples on the nil-sink fast path.
	Trace *obs.TraceSet
	// Telemetry, when non-nil, collects one telemetry collector per
	// sample (scraped once per simulated second from submission to
	// ready, standard SLO rules armed), added in sample order like
	// Trace. Nil keeps the samples on the nil-collector fast path.
	Telemetry *telemetry.Set
}

// DefaultTable2Config matches the paper.
func DefaultTable2Config() Table2Config { return Table2Config{Seed: 1, Samples: 10} }

// Table2Row is one (mode, configuration) cell with its sample statistics.
type Table2Row struct {
	Mode   vmm.StartMode
	Config string // "Persistent", "Non-persistent DiskFS", "Non-persistent LoopbackNFS"

	Mean, Std, Min, Max float64
	N                   int
}

// Table2 reproduces the VM startup measurements: globusrun-driven
// sessions within a LAN, for VM-reboot and VM-restore crossed with the
// three state configurations. Sample-to-sample variance comes from the
// same place it did on the real testbed: background activity on the
// compute host (a low-mean load trace with a different phase per
// sample).
func Table2(cfg Table2Config) ([]Table2Row, error) {
	if cfg.Samples <= 0 {
		cfg.Samples = 10
	}
	type cell struct {
		mode   vmm.StartMode
		label  string
		disk   core.DiskPolicy
		access core.ImageAccess
	}
	cells := []cell{
		{vmm.ColdBoot, "Persistent", core.Persistent, core.AccessLocal},
		{vmm.ColdBoot, "Non-persistent DiskFS", core.NonPersistent, core.AccessLocal},
		{vmm.ColdBoot, "Non-persistent LoopbackNFS", core.NonPersistent, core.AccessLoopback},
		{vmm.WarmRestore, "Persistent", core.Persistent, core.AccessLocal},
		{vmm.WarmRestore, "Non-persistent DiskFS", core.NonPersistent, core.AccessLocal},
		{vmm.WarmRestore, "Non-persistent LoopbackNFS", core.NonPersistent, core.AccessLoopback},
	}

	// Every (cell, sample) pair is an independent simulation with its
	// own runner-derived seed, so cells fill in parallel and the rows
	// are identical at any worker count.
	type sampleOut struct {
		v   float64
		tr  *obs.Tracer
		col *telemetry.Collector
	}
	results, err := sweep(cfg.Seed, len(cells), cfg.Samples, 1, cfg.Workers,
		func(ci, _ int, seed uint64) (sampleOut, error) {
			c := cells[ci]
			v, tr, col, err := table2Sample(seed, c.mode, c.disk, c.access, cfg.Trace != nil, cfg.Telemetry != nil)
			return sampleOut{v: v, tr: tr, col: col}, err
		})
	if err != nil {
		return nil, err
	}
	rows := make([]Table2Row, 0, len(cells))
	for ci, c := range cells {
		var stat sim.Stat
		// The sweep returns each cell's samples in sample order whatever
		// the worker interleaving, which fixes the trace and telemetry
		// layout.
		for si, r := range results[ci][0] {
			stat.Add(r.v)
			label := fmt.Sprintf("table2/VM-%s/%s/%d", c.mode, c.label, si)
			cfg.Trace.Add(label, r.tr)
			cfg.Telemetry.Add(label, r.col)
		}
		rows = append(rows, Table2Row{
			Mode: c.mode, Config: c.label,
			Mean: stat.Mean(), Std: stat.Stddev(), Min: stat.Min(), Max: stat.Max(), N: stat.N(),
		})
	}
	return rows, nil
}

// table2Sample measures one globusrun-to-ready startup on a fresh LAN
// testbed with background host noise. With traced set it also returns
// the sample's tracer, and with telemetered set its telemetry collector
// (nil otherwise — the free disabled paths).
func table2Sample(seed uint64, mode vmm.StartMode, disk core.DiskPolicy, access core.ImageAccess, traced, telemetered bool) (float64, *obs.Tracer, *telemetry.Collector, error) {
	tb, err := newTable2Testbed(seed, mode, disk, access, traced, telemetered)
	if err != nil {
		return 0, nil, nil, err
	}
	// The ready callback stops every background source, so the queue
	// drains at the measurement boundary and RunUntil reports the stall
	// long before this horizon.
	_ = tb.k.RunUntil(sim.Time(2 * sim.Hour))
	if tb.err != nil {
		return 0, nil, nil, tb.err
	}
	if tb.ready == nil || tb.ready.EventAt("ready") < 0 {
		return 0, nil, nil, fmt.Errorf("experiments: session never ready")
	}
	return tb.ready.EventAt("ready").Sub(tb.ready.EventAt("submitted")).Seconds(), tb.tr, tb.col, nil
}

// table2Testbed is one Table 2 sample set up and waiting for its kernel
// to run: the LAN testbed, the background host noise, and the session
// whose ready callback fills ready or the testbed error.
type table2Testbed struct {
	*testbed
	tr    *obs.Tracer
	col   *telemetry.Collector
	ready *core.Session
}

func newTable2Testbed(seed uint64, mode vmm.StartMode, disk core.DiskPolicy, access core.ImageAccess, traced, telemetered bool) (*table2Testbed, error) {
	tb := &table2Testbed{testbed: newTestbed(seed)}
	g := tb.g
	if traced {
		tb.tr = obs.New(tb.k)
		g.SetTracer(tb.tr)
	}
	if telemetered {
		var err error
		if tb.col, err = g.EnableTelemetry(); err != nil {
			return nil, err
		}
		if err := g.DefaultAlertRules(); err != nil {
			return nil, err
		}
		tb.col.WantAll() // the sample is exported whole
		// Self-tick once per simulated second until the session-ready
		// callback below takes the final scrape and stops the clock.
		tb.col.Start()
	}
	if err := tb.lan(
		core.NodeConfig{Name: "front", Site: "lan", Role: core.RoleFrontEnd},
		core.NodeConfig{Name: "compute", Site: "lan", Role: core.RoleCompute, Slots: 1, DHCPPrefix: "10.0.0."},
	); err != nil {
		return nil, err
	}
	img := benchImage
	img.OS = "redhat-7.2"
	if err := tb.install(img, "compute"); err != nil {
		return nil, err
	}

	// Background noise: the light desktop activity of a real host.
	noise := trace.Generate(tb.k.RNG().Split(), trace.GenConfig{
		Mean: 0.05, Rho: 0.9, Sigma: 0.05, Step: sim.Second, BurstProb: 0.01, BurstShape: 2.0,
	}, 4096)
	lp := hostos.NewLoadProcess(g.Node("compute").Host(), "host-noise", noise)
	lp.Start()

	cfg := benchSession
	cfg.Mode, cfg.Disk, cfg.Access = mode, disk, access
	_, err := g.CreateSession(cfg, func(s *core.Session, err error) {
		tb.ready = s
		tb.fail(err)
		// The measurement ends here: close out the telemetry window,
		// then stop the noise, whose trace would otherwise loop until
		// the horizon.
		tb.col.Scrape()
		tb.col.Stop()
		lp.Stop()
	})
	if err != nil {
		return nil, err
	}
	return tb, nil
}

// Table2Table renders rows like the paper's Table 2.
func Table2Table(rows []Table2Row) *Table {
	t := &Table{
		Title:  "Table 2: VM startup times (seconds), globusrun within a LAN",
		Note:   "statistics over per-cell samples; noise from background host load",
		Header: []string{"mode", "configuration", "mean", "std", "min", "max", "n"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			"VM-" + r.Mode.String(), r.Config,
			f1(r.Mean), f1(r.Std), f1(r.Min), f1(r.Max), fmt.Sprintf("%d", r.N),
		})
	}
	return t
}
