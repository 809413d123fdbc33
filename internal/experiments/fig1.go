package experiments

import (
	"fmt"

	"vmgrid/internal/guest"
	"vmgrid/internal/hostos"
	"vmgrid/internal/hw"
	"vmgrid/internal/obs"
	"vmgrid/internal/sim"
	"vmgrid/internal/storage"
	"vmgrid/internal/telemetry"
	"vmgrid/internal/trace"
	"vmgrid/internal/vmm"
)

// Placement says where a task runs in the Figure 1 grid of scenarios.
type Placement int

// Placements.
const (
	OnPhysical Placement = iota + 1
	OnVM
)

// String names the placement as in the paper's figure.
func (p Placement) String() string {
	switch p {
	case OnPhysical:
		return "physical"
	case OnVM:
		return "VM"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// fig1TaskSeconds is the CPU work of one test task sample.
const fig1TaskSeconds = 1.0

// Fig1Config parameterizes the microbenchmark.
type Fig1Config struct {
	// Seed drives all randomness.
	Seed uint64
	// Samples per scenario (the paper uses 1000).
	Samples int
	// Workers bounds the goroutines running scenarios concurrently;
	// <= 0 means one per CPU. Output is identical for every value.
	Workers int
	// Trace, when non-nil, collects one tracer per scenario (VM
	// lifecycle spans and the world-switch gauge), added in scenario
	// order so the set is byte-identical at any worker count.
	Trace *obs.TraceSet
	// Telemetry, when non-nil, collects one telemetry collector per
	// scenario: every test-task completion observes its slowdown as the
	// task.slowdown series, scraped once per simulated second with the
	// figure's >10% SLO armed as an alert rule. Added in scenario order
	// like Trace; nil keeps the nil-collector fast path.
	Telemetry *telemetry.Set
}

// DefaultFig1Config matches the paper's setup.
func DefaultFig1Config() Fig1Config {
	return Fig1Config{Seed: 1, Samples: 1000}
}

// Fig1Row is one of the twelve bars: mean ± stddev of test-task slowdown.
type Fig1Row struct {
	Load   trace.Class
	LoadOn Placement
	TestOn Placement

	Mean, Std, Min, Max float64
	N                   int
}

// Scenario labels the row like the paper's x axis.
func (r Fig1Row) Scenario() string {
	return fmt.Sprintf("load=%s/%s test=%s", r.Load, r.LoadOn, r.TestOn)
}

// Figure1 runs the microbenchmark: a synthetic CPU-bound test task
// sampled repeatedly under {none, light, heavy} background load, for all
// four placements of {load, test} across {physical machine, VM}.
// Slowdown is elapsed time over the unloaded-physical elapsed time.
// The twelve scenarios are independent simulations and fan out across
// cfg.Workers goroutines; each builds its kernel, host, and traces inside
// its own sample closure, so the rows are identical at any worker count.
func Figure1(cfg Fig1Config) ([]Fig1Row, error) {
	if cfg.Samples <= 0 {
		cfg.Samples = 1000
	}

	baseline, err := fig1Baseline(cfg)
	if err != nil {
		return nil, err
	}

	type scenario struct {
		load   trace.Class
		loadOn Placement
		testOn Placement
	}
	var scenarios []scenario
	for _, load := range trace.Classes() {
		for _, loadOn := range []Placement{OnPhysical, OnVM} {
			for _, testOn := range []Placement{OnPhysical, OnVM} {
				scenarios = append(scenarios, scenario{load, loadOn, testOn})
			}
		}
	}
	type scenarioOut struct {
		row Fig1Row
		tr  *obs.Tracer
		col *telemetry.Collector
	}
	results, err := RunSamples(cfg.Seed, len(scenarios), cfg.Workers,
		func(i int, seed uint64) (scenarioOut, error) {
			sc := scenarios[i]
			row, tr, col, err := fig1Scenario(cfg, baseline, seed, sc.load, sc.loadOn, sc.testOn)
			if err != nil {
				return scenarioOut{}, fmt.Errorf("scenario %v/%v/%v: %w", sc.load, sc.loadOn, sc.testOn, err)
			}
			return scenarioOut{row: row, tr: tr, col: col}, nil
		})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig1Row, 0, len(results))
	for _, r := range results {
		rows = append(rows, r.row)
		if cfg.Trace != nil {
			cfg.Trace.Add("fig1/"+r.row.Scenario(), r.tr)
		}
		if cfg.Telemetry != nil {
			cfg.Telemetry.Add("fig1/"+r.row.Scenario(), r.col)
		}
	}
	return rows, nil
}

// fig1Baseline measures the unloaded physical elapsed time of one task.
func fig1Baseline(cfg Fig1Config) (float64, error) {
	k := sim.NewKernel(cfg.Seed)
	h, err := hostos.New(k, hw.ReferenceMachine("phys"))
	if err != nil {
		return 0, err
	}
	os := guest.NewOS(guest.NewNativeCPU(h.Spawn("test")))
	os.MarkBooted()
	var elapsed float64
	if _, err := os.Run(guest.MicroTask(fig1TaskSeconds), func(r guest.TaskResult) {
		elapsed = r.Elapsed().Seconds()
	}); err != nil {
		return 0, err
	}
	k.Run()
	if elapsed <= 0 {
		return 0, fmt.Errorf("experiments: baseline task never finished")
	}
	return elapsed, nil
}

// fig1VM builds a warm-restored VM on h ready to run tasks; it returns
// once the VM is running (the caller drives the kernel). tr (nil ok)
// records the VM's lifecycle spans.
func fig1VM(k *sim.Kernel, h *hostos.Host, name string, tr *obs.Tracer, ready func(*vmm.VM)) error {
	store := storage.NewStore(h)
	img := storage.ImageInfo{Name: "rh72-" + name, OS: "rh72", DiskBytes: 2 * hw.GB, MemBytes: 128 * hw.MB}
	if err := storage.InstallImage(store, img); err != nil {
		return err
	}
	base, err := store.Open(img.DiskFile())
	if err != nil {
		return err
	}
	diff, err := store.OpenOrCreate(name + ".cow")
	if err != nil {
		return err
	}
	mem, err := store.Open(img.MemFile())
	if err != nil {
		return err
	}
	vm, err := vmm.New(h, vmm.Config{
		Name:     name,
		MemBytes: 128 * hw.MB,
		Disk:     storage.NewCowDisk(base, diff),
		MemImage: mem,
		Trace:    tr,
	})
	if err != nil {
		return err
	}
	return vm.Start(vmm.WarmRestore, func(err error) {
		if err == nil {
			ready(vm)
		}
	})
}

func fig1Scenario(cfg Fig1Config, baseline float64, seed uint64, load trace.Class, loadOn, testOn Placement) (Fig1Row, *obs.Tracer, *telemetry.Collector, error) {
	tb, err := newFig1Testbed(cfg, baseline, seed, load, loadOn, testOn)
	if err != nil {
		return Fig1Row{}, nil, nil, err
	}
	// Generous horizon: heavy load can triple task times. The last
	// sample stops every background source, so the queue drains at the
	// measurement boundary and RunUntil reports the stall well before.
	horizon := sim.DurationOf(float64(cfg.Samples)*fig1TaskSeconds*8 + 300)
	_ = tb.k.RunUntil(sim.Time(horizon))
	if tb.err != nil {
		return Fig1Row{}, nil, nil, tb.err
	}
	stat := &tb.stat
	if stat.N() < cfg.Samples {
		return Fig1Row{}, nil, nil, fmt.Errorf("experiments: only %d/%d samples completed", stat.N(), cfg.Samples)
	}
	row := Fig1Row{Load: load, LoadOn: loadOn, TestOn: testOn}
	row.Mean, row.Std, row.Min, row.Max, row.N = stat.Mean(), stat.Stddev(), stat.Min(), stat.Max(), stat.N()
	return row, tb.otr, tb.col, nil
}

// fig1Testbed is one Figure 1 scenario set up and waiting for its
// kernel to run; stat collects the test task's slowdown samples, and
// err holds the first error a simulation callback met.
type fig1Testbed struct {
	k    *sim.Kernel
	otr  *obs.Tracer
	col  *telemetry.Collector
	stat sim.Stat
	err  error
}

func newFig1Testbed(cfg Fig1Config, baseline float64, seed uint64, load trace.Class, loadOn, testOn Placement) (*fig1Testbed, error) {
	// seed is the runner-derived per-scenario seed; the background trace
	// below deliberately does NOT use it — all four placements of one
	// load class must replay the identical trace (paired design).
	k := sim.NewKernel(seed)
	tb := &fig1Testbed{k: k}
	if cfg.Trace != nil {
		tb.otr = obs.New(k)
	}
	if cfg.Telemetry != nil {
		var err error
		// Figure 1 has no Grid, so the scenario hosts a raw collector: the
		// sample loop observes each task's slowdown, and the figure's ≤10%
		// virtualization budget doubles as the SLO under test.
		if tb.col, err = telemetry.NewCollector(k, tb.otr); err != nil {
			return nil, err
		}
		if err := tb.col.AddRule("slowdown", "mean(task.slowdown, 30s) > 1.10 for 30s"); err != nil {
			return nil, err
		}
		tb.col.WantAll() // the scenario is exported whole
		tb.col.Start()
	}
	h, err := hostos.New(k, hw.ReferenceMachine("phys"))
	if err != nil {
		return nil, err
	}
	// All four placements of one load class replay the same trace, as
	// the paper does — placements are compared against each other, so
	// they must see identical background conditions.
	tr := trace.Synthetic(load, sim.NewRNG(cfg.Seed*1000003+uint64(load)), 8*cfg.Samples+64)

	// stops ends the background load sources applyLoad started; over
	// marks the measurement finished, after which none may start.
	var stops []func()
	over := false

	// The test environment: a guest OS either native or inside a VM.
	var testOS *guest.OS
	// end closes the measurement: one closing scrape, then stop the
	// self-tick and the background load so the event queue drains here.
	end := func() {
		tb.col.Scrape()
		tb.col.Stop()
		over = true
		for _, stop := range stops {
			stop()
		}
	}
	// fail records a callback's error and ends the scenario early.
	fail := func(err error) {
		tb.err = err
		end()
	}
	startSampling := func() {
		var sample func()
		sample = func() {
			if tb.stat.N() >= cfg.Samples {
				end()
				return
			}
			_, err := testOS.Run(guest.MicroTask(fig1TaskSeconds), func(r guest.TaskResult) {
				tb.stat.Add(r.Elapsed().Seconds() / baseline)
				tb.col.Observe("task.slowdown", r.Elapsed().Seconds()/baseline)
				sample()
			})
			if err != nil {
				fail(fmt.Errorf("experiments: test task: %w", err))
			}
		}
		sample()
	}

	// Apply the background load.
	playback := func(sink func(float64)) {
		if over {
			return
		}
		pb := trace.NewPlayback(k, tr, sink)
		pb.Start()
		stops = append(stops, pb.Stop)
	}
	applyLoad := func(testVM *vmm.VM) error {
		if load == trace.None {
			// The paper still plots all four placements under "none";
			// there is simply nothing to start.
			return nil
		}
		switch loadOn {
		case OnPhysical:
			lp := hostos.NewLoadProcess(h, "bg-load", tr)
			lp.Start()
			stops = append(stops, lp.Stop)
		case OnVM:
			if testOn == OnVM {
				// Load and test share the virtual machine.
				playback(testVM.Guest().SetBackgroundLoad)
				return nil
			}
			// The load gets its own VM next to the physical test task.
			return fig1VM(k, h, "loadvm", tb.otr, func(vm *vmm.VM) {
				playback(vm.Guest().SetBackgroundLoad)
			})
		}
		return nil
	}

	switch testOn {
	case OnPhysical:
		testOS = guest.NewOS(guest.NewNativeCPU(h.Spawn("test")))
		testOS.MarkBooted()
		if err := applyLoad(nil); err != nil {
			return nil, err
		}
		startSampling()
	case OnVM:
		if err := fig1VM(k, h, "testvm", tb.otr, func(vm *vmm.VM) {
			testOS = vm.Guest()
			if err := applyLoad(vm); err != nil {
				fail(fmt.Errorf("experiments: background load: %w", err))
				return
			}
			startSampling()
		}); err != nil {
			return nil, err
		}
	}
	return tb, nil
}

// Figure1Table renders the rows like the paper's figure (one bar each).
func Figure1Table(rows []Fig1Row) *Table {
	t := &Table{
		Title:  "Figure 1: microbenchmark slowdown (mean +/- std over samples)",
		Note:   "slowdown = elapsed / unloaded-physical elapsed",
		Header: []string{"load", "load on", "test on", "mean", "std", "min", "max"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Load.String(), r.LoadOn.String(), r.TestOn.String(),
			f3(r.Mean), f3(r.Std), f3(r.Min), f3(r.Max),
		})
	}
	return t
}
