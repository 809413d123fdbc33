package experiments

import (
	"fmt"

	"vmgrid/internal/core"
	"vmgrid/internal/guest"
	"vmgrid/internal/hostos"
	"vmgrid/internal/hw"
	"vmgrid/internal/rps"
	"vmgrid/internal/sched"
	"vmgrid/internal/sim"
	"vmgrid/internal/storage"
	"vmgrid/internal/trace"
	"vmgrid/internal/vmm"
)

// ---------------------------------------------------------------------
// Ablation A: whole-file staging vs on-demand virtual file system (§3.1)
// ---------------------------------------------------------------------

// StagingRow compares time-to-useful-work for one working-set fraction.
type StagingRow struct {
	// WorkingSet is the fraction of the 2 GB image the task touches.
	WorkingSet float64
	// StagedSec and OnDemandSec are time from submission to task
	// completion for the two transfer models.
	StagedSec   float64
	OnDemandSec float64
}

// AblationStaging sweeps the task's working-set fraction and measures a
// short task end-to-end under whole-file staging vs on-demand transfer
// across a WAN. The paper's §3.1 argument: "transfer of entire VM
// states can lead to unnecessary traffic due to the copying of unused
// data", so on-demand wins until the working set approaches the image.
// The 6 fractions × 2 transfer models are independent simulations and
// fan out across workers goroutines (<= 0 means one per CPU).
func AblationStaging(seed uint64, workers int) ([]StagingRow, error) {
	fractions := []float64{0.01, 0.05, 0.10, 0.25, 0.50, 1.0}
	arms := []struct {
		access core.ImageAccess
		label  string
	}{{core.AccessStaged, "staged"}, {core.AccessOnDemand, "on-demand"}}
	// Paired design: both arms of one fraction replay the experiment
	// seed so the winner column compares identical randomness.
	secs, err := RunSamples(seed, len(fractions)*len(arms), workers,
		func(i int, _ uint64) (float64, error) {
			ws, arm := fractions[i/len(arms)], arms[i%len(arms)]
			v, err := stagingRun(seed, arm.access, ws)
			if err != nil {
				return 0, fmt.Errorf("staging ws=%v %s: %w", ws, arm.label, err)
			}
			return v, nil
		})
	if err != nil {
		return nil, err
	}
	rows := make([]StagingRow, 0, len(fractions))
	for fi, ws := range fractions {
		rows = append(rows, StagingRow{
			WorkingSet: ws, StagedSec: secs[fi*len(arms)], OnDemandSec: secs[fi*len(arms)+1],
		})
	}
	return rows, nil
}

func stagingRun(seed uint64, access core.ImageAccess, workingSet float64) (float64, error) {
	tb := newTestbed(seed)
	if err := tb.lan(
		core.NodeConfig{Name: "front", Site: "a", Role: core.RoleFrontEnd},
		core.NodeConfig{Name: "compute", Site: "a", Role: core.RoleCompute, Slots: 1, DHCPPrefix: "10.0.0."},
	); err != nil {
		return 0, err
	}
	// The image server sits across the WAN from both.
	if _, err := tb.g.AddNode(core.NodeConfig{Name: "images", Site: "b", Role: core.RoleImageServer}); err != nil {
		return 0, err
	}
	if err := tb.g.Net().ConnectWAN("compute", "images"); err != nil {
		return 0, err
	}
	if err := tb.g.Net().ConnectWAN("front", "images"); err != nil {
		return 0, err
	}
	if err := tb.install(benchImage, "images"); err != nil {
		return 0, err
	}

	var finishedAt sim.Time = -1
	cfg := benchSession
	cfg.Access = access
	_, err := tb.g.CreateSession(cfg, func(s *core.Session, err error) {
		if err != nil {
			tb.fail(err)
			return
		}
		// The task touches workingSet of the image through the root
		// mount, with a little compute in between.
		touched := int64(float64(benchImage.DiskBytes) * workingSet)
		reads := int(touched / (256 << 10))
		if reads < 1 {
			reads = 1
		}
		w := guest.Workload{
			Name:       "touch",
			CPUSeconds: 60,
			RootOps:    reads,
			RootBytes:  touched,
		}
		tb.fail(s.Run(w, func(guest.TaskResult) { finishedAt = tb.k.Now() }))
	})
	if err != nil {
		return 0, err
	}
	_ = tb.k.RunUntil(sim.Time(6 * sim.Hour))
	if tb.err != nil {
		return 0, tb.err
	}
	if finishedAt < 0 {
		return 0, fmt.Errorf("experiments: staging run never finished")
	}
	return finishedAt.Seconds(), nil
}

// StagingTable renders ablation A.
func StagingTable(rows []StagingRow) *Table {
	t := &Table{
		Title:  "Ablation A: whole-file staging vs on-demand VFS (2 GB image over WAN)",
		Note:   "time from submission to completion of a 60 s task touching the given fraction",
		Header: []string{"working set", "staged (s)", "on-demand (s)", "winner"},
	}
	for _, r := range rows {
		winner := "on-demand"
		if r.StagedSec < r.OnDemandSec {
			winner = "staged"
		}
		t.Rows = append(t.Rows, []string{
			pct(r.WorkingSet), f1(r.StagedSec), f1(r.OnDemandSec), winner,
		})
	}
	return t
}

// ---------------------------------------------------------------------
// Ablation B: read-only image sharing through the host cache (§3.1)
// ---------------------------------------------------------------------

// CacheRow is the boot cost of the i-th VM sharing one base image.
type CacheRow struct {
	Instance  int
	BootSec   float64
	DiskReads uint64 // device requests during this boot
}

// AblationProxyCache boots N VMs one after another from the same master
// image on one host. Later boots hit the shared buffer cache, the
// mechanism behind "a master static Linux virtual system disk shared by
// multiple dynamic instances". Unlike the other experiments this one is
// inherently serial — the boots share one host cache, so it runs as a
// single sample regardless of workers.
func AblationProxyCache(seed uint64, instances, workers int) ([]CacheRow, error) {
	rows, err := RunSamples(seed, 1, workers,
		func(int, uint64) ([]CacheRow, error) { return proxyCacheRun(seed, instances) })
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

func proxyCacheRun(seed uint64, instances int) ([]CacheRow, error) {
	if instances <= 0 {
		instances = 4
	}
	k := sim.NewKernel(seed)
	h, err := hostos.New(k, hw.ReferenceMachine("host"))
	if err != nil {
		return nil, err
	}
	store := storage.NewStore(h)
	img := storage.ImageInfo{Name: "rh72", OS: "rh72", DiskBytes: 2 * hw.GB, MemBytes: 128 * hw.MB}
	if err := storage.InstallImage(store, img); err != nil {
		return nil, err
	}

	var rows []CacheRow
	var bootNext func(i int)
	var fail error
	bootNext = func(i int) {
		if i >= instances {
			return
		}
		base, err := store.Open(img.DiskFile())
		if err != nil {
			fail = err
			return
		}
		diff, err := store.OpenOrCreate(fmt.Sprintf("vm%d.cow", i))
		if err != nil {
			fail = err
			return
		}
		vm, err := vmm.New(h, vmm.Config{
			Name:     fmt.Sprintf("vm%d", i),
			MemBytes: 128 * hw.MB,
			Disk:     storage.NewCowDisk(base, diff),
		})
		if err != nil {
			fail = err
			return
		}
		start := k.Now()
		reqBefore := h.Disk().Requests()
		if err := vm.Start(vmm.ColdBoot, func(err error) {
			if err != nil {
				fail = err
				return
			}
			rows = append(rows, CacheRow{
				Instance:  i + 1,
				BootSec:   k.Now().Sub(start).Seconds(),
				DiskReads: h.Disk().Requests() - reqBefore,
			})
			// Power off so the next boot measures I/O, not CPU sharing.
			vm.PowerOff()
			bootNext(i + 1)
		}); err != nil {
			fail = err
		}
	}
	bootNext(0)
	_ = k.RunUntil(sim.Time(2 * sim.Hour))
	if fail != nil {
		return nil, fail
	}
	if len(rows) != instances {
		return nil, fmt.Errorf("experiments: only %d/%d boots completed", len(rows), instances)
	}
	return rows, nil
}

// CacheTable renders ablation B.
func CacheTable(rows []CacheRow) *Table {
	t := &Table{
		Title:  "Ablation B: sequential VM boots sharing one master image",
		Note:   "later instances hit the host buffer cache for base-image blocks",
		Header: []string{"instance", "boot (s)", "device reads"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Instance), f1(r.BootSec), fmt.Sprintf("%d", r.DiskReads),
		})
	}
	return t
}

// ---------------------------------------------------------------------
// Ablation C: resource-control mechanisms (§3.2)
// ---------------------------------------------------------------------

// SchedRow reports how one mechanism enforced a 70/30 split.
type SchedRow struct {
	Mechanism string
	// ShareA is the long-run share client A achieved (target 0.7).
	ShareA float64
	// WorstWindow is the largest deviation of A's share from target in
	// any 100-quantum window (short-term fairness).
	WorstWindow float64
}

// schedTarget is client A's share of the CPU in ablation C.
const schedTarget = 0.7

// evalQuantum measures a quantum scheduler's long-run share and worst
// 100-quantum window deviation from the 70/30 target.
func evalQuantum(s sched.QuantumScheduler) SchedRow {
	const (
		quanta = 20000
		window = 100
	)
	countA := 0
	worst := 0.0
	winA := 0
	for q := 1; q <= quanta; q++ {
		if s.Next() == 0 {
			countA++
			winA++
		}
		if q%window == 0 {
			dev := float64(winA)/window - schedTarget
			if dev < 0 {
				dev = -dev
			}
			if dev > worst {
				worst = dev
			}
			winA = 0
		}
	}
	return SchedRow{
		Mechanism:   s.Name(),
		ShareA:      float64(countA) / quanta,
		WorstWindow: worst,
	}
}

// AblationScheduling compares lottery scheduling, weighted fair
// queueing, and SIGSTOP/SIGCONT duty-cycling at enforcing a 70/30 CPU
// split between two competing VMs. The three mechanisms evaluate
// independently and fan out across workers goroutines; each sample
// builds its own scheduler (and, for stop/cont, kernel) so nothing is
// shared.
func AblationScheduling(seed uint64, workers int) ([]SchedRow, error) {
	mechanisms := []func() (SchedRow, error){
		func() (SchedRow, error) {
			lot, err := sched.NewLottery(sim.NewRNG(seed), 7, 3)
			if err != nil {
				return SchedRow{}, err
			}
			return evalQuantum(lot), nil
		},
		func() (SchedRow, error) {
			wfq, err := sched.NewWFQ(7, 3)
			if err != nil {
				return SchedRow{}, err
			}
			return evalQuantum(wfq), nil
		},
		func() (SchedRow, error) { return schedStopCont(seed) },
	}
	return RunSamples(seed, len(mechanisms), workers,
		func(i int, _ uint64) (SchedRow, error) { return mechanisms[i]() })
}

// schedStopCont measures duty-cycle modulation on the fluid host model:
// two CPU-bound VMs, A capped at 70%, B at 30%, measuring A's achieved
// work share.
func schedStopCont(seed uint64) (SchedRow, error) {
	const target = schedTarget
	k := sim.NewKernel(seed)
	h, err := hostos.New(k, hw.ReferenceMachine("host"))
	if err != nil {
		return SchedRow{}, err
	}
	procA := h.Spawn("vm-a")
	procB := h.Spawn("vm-b")
	modA, err := sched.NewModulator(k, procA, target)
	if err != nil {
		return SchedRow{}, err
	}
	modB, err := sched.NewModulator(k, procB, 1-target)
	if err != nil {
		return SchedRow{}, err
	}
	modA.Start()
	modB.Start()
	trA := sim.NewWorkTracker(k, 1e9, nil)
	trB := sim.NewWorkTracker(k, 1e9, nil)
	procA.OnRate(trA.SetRate)
	procB.OnRate(trB.SetRate)
	procA.SetDemand(1)
	procB.SetDemand(1)

	// Sample A's share in 100×10ms windows for worst-window tracking.
	worst := 0.0
	var lastA, lastB float64
	sample := func() {}
	sample = func() {
		a, b := trA.Consumed(), trB.Consumed()
		da, db := a-lastA, b-lastB
		lastA, lastB = a, b
		if da+db > 0 {
			dev := da/(da+db) - target
			if dev < 0 {
				dev = -dev
			}
			if dev > worst {
				worst = dev
			}
		}
		if k.Now() < sim.Time(200*sim.Second) {
			k.After(sim.Second, sample)
		}
	}
	k.After(sim.Second, sample)
	_ = k.RunUntil(sim.Time(200 * sim.Second))
	total := trA.Consumed() + trB.Consumed()
	return SchedRow{
		Mechanism:   "stop/cont",
		ShareA:      trA.Consumed() / total,
		WorstWindow: worst,
	}, nil
}

// SchedTable renders ablation C.
func SchedTable(rows []SchedRow) *Table {
	t := &Table{
		Title:  "Ablation C: enforcing a 70/30 split between two VMs",
		Note:   "long-run share of client A (target 0.70) and worst short-window deviation",
		Header: []string{"mechanism", "share A", "worst window dev"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Mechanism, f3(r.ShareA), f3(r.WorstWindow)})
	}
	return t
}

// ---------------------------------------------------------------------
// Ablation D: migration vs restart (§3.1, §4)
// ---------------------------------------------------------------------

// MigrationRow compares moving a mid-flight computation.
type MigrationRow struct {
	Strategy string
	// TotalSec is submission-to-completion of a 600 s job interrupted
	// at 300 s.
	TotalSec float64
	// LostWork is CPU work discarded by the strategy.
	LostWork float64
}

// AblationMigration interrupts a long job halfway and compares finishing
// strategies: keep running (baseline), migrate the VM to a LAN peer,
// and kill + cold restart from scratch on the peer. The three strategies
// simulate independently (each builds its own grid from the shared
// experiment seed, a paired design) and fan out across workers
// goroutines.
func AblationMigration(seed uint64, workers int) ([]MigrationRow, error) {
	run := func(strategy string) (float64, float64, error) {
		tb := newTestbed(seed)
		if err := tb.lan(
			core.NodeConfig{Name: "front", Site: "lan", Role: core.RoleFrontEnd},
			core.NodeConfig{Name: "n1", Site: "lan", Role: core.RoleCompute, Slots: 1, DHCPPrefix: "10.0.1."},
			core.NodeConfig{Name: "n2", Site: "lan", Role: core.RoleCompute, Slots: 1, DHCPPrefix: "10.0.2."},
		); err != nil {
			return 0, 0, err
		}
		if err := tb.install(benchImage, "n1", "n2"); err != nil {
			return 0, 0, err
		}

		const jobSeconds = 600
		var doneAt sim.Time = -1
		var lost float64
		done := func(guest.TaskResult) { doneAt = tb.k.Now() }
		cfg := benchSession
		cfg.Site = "lan"
		_, err := tb.g.CreateSession(cfg, func(s *core.Session, err error) {
			if err != nil {
				tb.fail(err)
				return
			}
			if err := s.Run(guest.MicroTask(jobSeconds), done); err != nil {
				tb.fail(err)
				return
			}
			// Interrupt halfway through the job; "keep" is the baseline.
			tb.k.After(300*sim.Second, func() {
				switch strategy {
				case "migrate":
					tb.fail(s.Migrate("n2", tb.fail))
				case "restart":
					// Restarting from scratch discards the 300 s the job
					// had run.
					lost = 300
					s.Shutdown()
					_, err := tb.g.CreateSession(cfg, func(s2 *core.Session, err error) {
						if err != nil {
							tb.fail(err)
							return
						}
						tb.fail(s2.Run(guest.MicroTask(jobSeconds), done))
					})
					tb.fail(err)
				}
			})
		})
		if err != nil {
			return 0, 0, err
		}
		_ = tb.k.RunUntil(sim.Time(6 * sim.Hour))
		if tb.err != nil {
			return 0, 0, tb.err
		}
		if doneAt < 0 {
			return 0, 0, fmt.Errorf("experiments: %s never finished", strategy)
		}
		return doneAt.Seconds(), lost, nil
	}

	strategies := []string{"keep", "migrate", "restart"}
	return RunSamples(seed, len(strategies), workers,
		func(i int, _ uint64) (MigrationRow, error) {
			total, lost, err := run(strategies[i])
			if err != nil {
				return MigrationRow{}, err
			}
			return MigrationRow{Strategy: strategies[i], TotalSec: total, LostWork: lost}, nil
		})
}

// MigrationTable renders ablation D.
func MigrationTable(rows []MigrationRow) *Table {
	t := &Table{
		Title:  "Ablation D: interrupting a 600 s job at t=300 s",
		Note:   "migrate preserves guest state; restart discards it",
		Header: []string{"strategy", "total (s)", "lost work (s)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Strategy, f1(r.TotalSec), f1(r.LostWork)})
	}
	return t
}

// ---------------------------------------------------------------------
// Ablation E: load predictors for adaptation (§3.2)
// ---------------------------------------------------------------------

// PredictorRow is one (class, predictor) evaluation.
type PredictorRow struct {
	Load      trace.Class
	Predictor string
	MSE       float64
	MAE       float64
}

// AblationPredictors evaluates the RPS predictors one-step-ahead on the
// load classes. Each (class, predictor) pair evaluates independently —
// the sample closure regenerates its class's trace from the experiment
// seed — and fans out across workers goroutines.
func AblationPredictors(seed uint64, workers int) ([]PredictorRow, error) {
	classes := []trace.Class{trace.Light, trace.Heavy}
	const predictors = 3 // LAST, MEAN(500), AR(8)
	return RunSamples(seed, len(classes)*predictors, workers,
		func(i int, _ uint64) (PredictorRow, error) {
			class := classes[i/predictors]
			// The trace is paired per class (same data for all three
			// predictors), so it derives from the experiment seed.
			data := trace.Synthetic(class, sim.NewRNG(seed+uint64(class)), 6000).Loads
			const train = 2000
			var p rps.Predictor
			switch i % predictors {
			case 0:
				p = &rps.LastValue{}
			case 1:
				mm, err := rps.NewMovingMean(500)
				if err != nil {
					return PredictorRow{}, err
				}
				p = mm
			case 2:
				ar, err := rps.NewAR(8)
				if err != nil {
					return PredictorRow{}, err
				}
				p = ar
			}
			ev, err := rps.Evaluate(p, data, train)
			if err != nil {
				return PredictorRow{}, err
			}
			return PredictorRow{Load: class, Predictor: ev.Predictor, MSE: ev.MSE, MAE: ev.MAE}, nil
		})
}

// PredictorTable renders ablation E.
func PredictorTable(rows []PredictorRow) *Table {
	t := &Table{
		Title:  "Ablation E: one-step-ahead host load prediction (RPS)",
		Note:   "lower is better; AR exploits the strong autocorrelation of host load",
		Header: []string{"load", "predictor", "MSE", "MAE"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Load.String(), r.Predictor, f3(r.MSE), f3(r.MAE)})
	}
	return t
}
