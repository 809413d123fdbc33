package experiments

import (
	"vmgrid/internal/obs"
	"vmgrid/internal/telemetry"
)

// Ctx carries the run-wide settings an Experiment reads.
type Ctx struct {
	Seed uint64
	// Samples overrides the sample count of an experiment that takes
	// one; 0 keeps the experiment's own default.
	Samples int
	// Workers bounds the goroutines running samples; <= 0 means one per
	// CPU. Output is identical for every value.
	Workers int
	// Trace and Telemetry, when non-nil, collect the fig1 and table2
	// samples; Incidents collects ablation-recovery's incident bundles.
	Trace     *obs.TraceSet
	Telemetry *telemetry.Set
	Incidents *obs.IncidentSet
}

// Experiment is one entry of the evaluation suite.
type Experiment struct {
	// Name is the experiment's gridbench -exp name.
	Name string
	// Samples reports whether the experiment takes a sample count; the
	// others have a fixed design and ignore Ctx.Samples.
	Samples bool
	// Run executes the experiment and returns its table and how many
	// simulation samples it ran (table rows × replicates per row).
	Run func(Ctx) (*Table, int, error)
}

// Experiments is the suite in gridbench's -exp all order. cmd/gridbench,
// its golden tests and the repository benchmarks all iterate it, so an
// experiment is added by adding one entry here.
var Experiments = []Experiment{
	{"fig1", true, func(c Ctx) (*Table, int, error) {
		cfg := DefaultFig1Config()
		cfg.Seed, cfg.Workers, cfg.Trace, cfg.Telemetry = c.Seed, c.Workers, c.Trace, c.Telemetry
		cfg.Samples = orDefault(c.Samples, cfg.Samples)
		rows, err := Figure1(cfg)
		return done(Figure1Table, rows, cfg.Samples, err)
	}},
	{"table1", false, func(c Ctx) (*Table, int, error) {
		rows, err := Table1(c.Seed, c.Workers)
		return done(Table1Table, rows, 1, err)
	}},
	{"table2", true, func(c Ctx) (*Table, int, error) {
		cfg := DefaultTable2Config()
		cfg.Seed, cfg.Workers, cfg.Trace, cfg.Telemetry = c.Seed, c.Workers, c.Trace, c.Telemetry
		cfg.Samples = orDefault(c.Samples, cfg.Samples)
		rows, err := Table2(cfg)
		return done(Table2Table, rows, cfg.Samples, err)
	}},
	{"ablation-staging", false, func(c Ctx) (*Table, int, error) {
		rows, err := AblationStaging(c.Seed, c.Workers)
		return done(StagingTable, rows, 1, err)
	}},
	{"ablation-cache", true, func(c Ctx) (*Table, int, error) {
		rows, err := AblationProxyCache(c.Seed, c.Samples, c.Workers)
		return done(CacheTable, rows, 1, err)
	}},
	{"ablation-sched", false, func(c Ctx) (*Table, int, error) {
		rows, err := AblationScheduling(c.Seed, c.Workers)
		return done(SchedTable, rows, 1, err)
	}},
	{"ablation-migration", false, func(c Ctx) (*Table, int, error) {
		rows, err := AblationMigration(c.Seed, c.Workers)
		return done(MigrationTable, rows, 1, err)
	}},
	{"ablation-overlay", false, func(c Ctx) (*Table, int, error) {
		rows, err := AblationOverlay(c.Seed, c.Workers)
		return done(OverlayTable, rows, 1, err)
	}},
	{"ablation-rps", false, func(c Ctx) (*Table, int, error) {
		rows, err := AblationPredictors(c.Seed, c.Workers)
		return done(PredictorTable, rows, 1, err)
	}},
	{"ablation-recovery", true, func(c Ctx) (*Table, int, error) {
		n := orDefault(c.Samples, recoverySamples)
		rows, err := ablationRecovery(c.Seed, n, c.Workers, c.Incidents)
		return done(RecoveryTable, rows, n, err)
	}},
	{"ablation-partition", true, func(c Ctx) (*Table, int, error) {
		n := orDefault(c.Samples, partitionSamples)
		rows, err := AblationPartition(c.Seed, n, c.Workers)
		return done(PartitionTable, rows, n, err)
	}},
	{"ablation-balance", true, func(c Ctx) (*Table, int, error) {
		n := orDefault(c.Samples, balanceSamples)
		rows, err := AblationBalance(c.Seed, n, c.Workers)
		return done(BalanceTable, rows, n, err)
	}},
	{"ablation-delta", true, func(c Ctx) (*Table, int, error) {
		n := orDefault(c.Samples, deltaSamples)
		rows, err := AblationDelta(c.Seed, n, c.Workers)
		return done(DeltaTable, rows, n, err)
	}},
}

// Lookup returns the experiment called name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// orDefault resolves a sample-count override: n > 0 wins over def.
func orDefault(n, def int) int {
	if n > 0 {
		return n
	}
	return def
}

// done renders a runner's rows and counts the samples behind them.
func done[R any](render func([]R) *Table, rows []R, perRow int, err error) (*Table, int, error) {
	if err != nil {
		return nil, 0, err
	}
	return render(rows), len(rows) * perRow, nil
}
