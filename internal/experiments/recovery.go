package experiments

import (
	"context"
	"fmt"

	"vmgrid/internal/core"
	"vmgrid/internal/fault"
	"vmgrid/internal/guest"
	"vmgrid/internal/hw"
	"vmgrid/internal/obs"
	"vmgrid/internal/sim"
	"vmgrid/internal/storage"
	"vmgrid/internal/vmm"
)

// ---------------------------------------------------------------------
// Ablation G: checkpoint interval × failure rate (recovery)
// ---------------------------------------------------------------------
//
// The paper argues (§2) that a VM's complete-state encapsulation makes
// sessions recoverable: suspend the memory image, and any node with the
// base image can resume the computation. This ablation quantifies that
// claim with the fault fabric and the self-healing supervisor: a 1500 s
// CPU-bound task runs under Poisson node crashes while the supervisor
// checkpoints at a swept interval, and we measure what the failures cost
// (work replayed, time to repair, availability) against what the
// protection costs (time spent suspended and staging checkpoints).

// RecoveryRow aggregates one (MTBF, checkpoint interval) cell.
type RecoveryRow struct {
	// MTBFSec is the mean time between node crashes.
	MTBFSec float64
	// IntervalSec is the checkpoint interval under test.
	IntervalSec float64
	// CompletionSec is mean task time, submission to completion,
	// including every failover the run absorbed.
	CompletionSec float64
	// Crashes is the mean number of host crashes per run.
	Crashes float64
	// LostWorkSec is mean user work replayed per recovery — progress
	// retired after the last checkpoint and before the crash.
	LostWorkSec float64
	// MTTRSec is mean time per recovery from the crash to the session
	// regaining its pre-crash progress: detection + restore + replay.
	MTTRSec float64
	// Availability is the fraction of wall-clock the session was live
	// (not crashed or being restored).
	Availability float64
	// CkptCostSec is mean time per run the session spent suspended or
	// staging for checkpoints — the fault-free price of protection.
	CkptCostSec float64
	// AlertFirings is the mean number of stale-lease telemetry alerts
	// fired per run by task completion. The alert engine watches the
	// same lease ages the supervisor's failure detector does (at a
	// tighter 2×heartbeat threshold versus the 3×heartbeat TTL), so
	// every detected crash should trip it exactly once: firings track
	// crashes, cross-checking the two detection paths against each
	// other.
	AlertFirings float64
}

// recoveryArm is one simulated run of the 1500 s task at one checkpoint
// interval under one crash schedule.
type recoveryArm struct {
	CompletionSec float64
	LostWorkSec   float64
	RepairSec     float64
	CkptCostSec   float64
	Crashes       int
	Recoveries    int
	LeaseAlerts   int
}

// recoveryTaskSec is the supervised workload: long enough for several
// crashes at the fast MTBF, short enough to keep the sweep cheap.
const recoveryTaskSec = 1500

// recoverySamples is the default replicate count per MTBF.
const recoverySamples = 8

// AblationRecovery sweeps checkpoint interval × failure rate. The design
// is paired: one sample is one (MTBF, replicate) pair whose crash
// schedule — drawn from fault.NewSeeded with the sample's seed — replays
// identically across all checkpoint intervals, so interval columns
// compare the same failures. samples <= 0 selects the default replicate
// count; samples × len(mtbfs) fan out across workers goroutines.
func AblationRecovery(seed uint64, samples, workers int) ([]RecoveryRow, error) {
	return ablationRecovery(seed, samples, workers, nil)
}

// ablationRecovery is AblationRecovery with, when set is non-nil, every
// run's grid carrying a flight recorder (flight-only tracer: causal spans
// feed the ring and incident capture but are never retained whole). Each
// run's incident bundles — one "recovery" incident per failover, sealed
// with a postmortem when the failover resolves — are collected into set
// in sample order, so the JSON export is byte-identical at any worker
// count. The measured rows are unchanged: recording never alters
// simulation outcomes.
func ablationRecovery(seed uint64, samples, workers int, set *obs.IncidentSet) ([]RecoveryRow, error) {
	mtbfs := []sim.Duration{10 * sim.Minute, 30 * sim.Minute}
	intervals := []sim.Duration{30 * sim.Second, 60 * sim.Second, 120 * sim.Second, 240 * sim.Second}
	if samples <= 0 {
		samples = recoverySamples
	}
	type sampleOut struct {
		arms []recoveryArm
		recs []*obs.FlightRecorder
	}
	results, err := RunSamples(context.Background(), seed, len(mtbfs)*samples, workers,
		func(i int, sseed uint64) (sampleOut, error) {
			mtbf := mtbfs[i/samples]
			out := sampleOut{
				arms: make([]recoveryArm, len(intervals)),
				recs: make([]*obs.FlightRecorder, len(intervals)),
			}
			for j, iv := range intervals {
				a, rec, err := recoveryRun(sseed, mtbf, iv, set != nil)
				if err != nil {
					return sampleOut{}, fmt.Errorf("recovery mtbf=%v ckpt=%v sample %d: %w", mtbf, iv, i, err)
				}
				out.arms[j] = a
				out.recs[j] = rec
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	// RunSamples returns in sample-index order regardless of worker
	// interleaving, so this loop fixes the incident layout.
	if set != nil {
		for i, r := range results {
			mtbf := mtbfs[i/samples]
			for j, iv := range intervals {
				set.Add(fmt.Sprintf("recovery/mtbf-%.0fs/ckpt-%.0fs/%d",
					mtbf.Seconds(), iv.Seconds(), i%samples), r.recs[j])
			}
		}
	}
	rows := make([]RecoveryRow, 0, len(mtbfs)*len(intervals))
	for mi, mtbf := range mtbfs {
		for ji, iv := range intervals {
			var sum recoveryArm
			for si := 0; si < samples; si++ {
				a := results[mi*samples+si].arms[ji]
				sum.CompletionSec += a.CompletionSec
				sum.LostWorkSec += a.LostWorkSec
				sum.RepairSec += a.RepairSec
				sum.CkptCostSec += a.CkptCostSec
				sum.Crashes += a.Crashes
				sum.Recoveries += a.Recoveries
				sum.LeaseAlerts += a.LeaseAlerts
			}
			recoveries := float64(sum.Recoveries)
			if recoveries == 0 {
				recoveries = 1 // no crashes in the cell: lost/MTTR read as 0
			}
			rows = append(rows, RecoveryRow{
				MTBFSec:       mtbf.Seconds(),
				IntervalSec:   iv.Seconds(),
				CompletionSec: sum.CompletionSec / float64(samples),
				Crashes:       float64(sum.Crashes) / float64(samples),
				LostWorkSec:   sum.LostWorkSec / recoveries,
				MTTRSec:       (sum.LostWorkSec + sum.RepairSec) / recoveries,
				Availability:  1 - sum.RepairSec/sum.CompletionSec,
				CkptCostSec:   sum.CkptCostSec / float64(samples),
				AlertFirings:  float64(sum.LeaseAlerts) / float64(samples),
			})
		}
	}
	return rows, nil
}

// recoveryRun simulates one supervised task to completion: two compute
// nodes on a LAN with a data server holding the checkpoints, node
// crashes drawn from the crash seed (identical across interval arms),
// each crashed node rebooting 300 s later. With record set the grid
// carries a flight recorder whose incident bundles are returned (nil
// otherwise — the zero-cost disabled path).
func recoveryRun(crashSeed uint64, mtbf, interval sim.Duration, record bool) (recoveryArm, *obs.FlightRecorder, error) {
	var arm recoveryArm
	g := core.NewGrid(crashSeed)
	k := g.Kernel()
	var rec *obs.FlightRecorder
	if record {
		rec = g.EnableFlightRecorder()
	}
	// The telemetry pipeline runs alongside the supervisor with the
	// standard SLO rules: its stale-lease alert (2×heartbeat) is an
	// independent shadow of the lease-expiry failure detector
	// (3×heartbeat TTL), and the firing count per run is reported so the
	// two detection paths cross-check each other. Scraping is read-only,
	// so the measured recovery numbers are unchanged by it.
	col, err := g.EnableTelemetry()
	if err != nil {
		return arm, nil, err
	}
	if err := g.DefaultAlertRules(); err != nil {
		return arm, nil, err
	}
	col.Start()
	for _, cfg := range []core.NodeConfig{
		{Name: "front", Site: "a", Role: core.RoleFrontEnd},
		{Name: "c1", Site: "a", Role: core.RoleCompute, Slots: 1, DHCPPrefix: "10.1.0."},
		{Name: "c2", Site: "a", Role: core.RoleCompute, Slots: 1, DHCPPrefix: "10.1.1."},
		{Name: "data", Site: "a", Role: core.RoleDataServer},
	} {
		if _, err := g.AddNode(cfg); err != nil {
			return arm, nil, err
		}
	}
	if err := g.Net().BuildLAN("front", "c1", "c2", "data"); err != nil {
		return arm, nil, err
	}
	// A modest warm image bounds the per-checkpoint staging cost so the
	// interval sweep exercises a real overhead/recovery trade-off.
	img := storage.ImageInfo{Name: "rh72", OS: "rh72", DiskBytes: 2 * hw.GB, MemBytes: 64 * hw.MB}
	for _, n := range []string{"c1", "c2"} {
		if err := g.Node(n).InstallImage(img); err != nil {
			return arm, nil, err
		}
	}

	ready, serr := false, error(nil)
	var sess *core.Session
	if _, err := g.CreateSession(core.SessionConfig{
		User: "bench", FrontEnd: "front", Image: "rh72",
		Mode: vmm.WarmRestore, Disk: core.NonPersistent, Access: core.AccessLocal,
	}, func(s *core.Session, err error) { sess, serr, ready = s, err, true }); err != nil {
		return arm, nil, err
	}
	_ = k.RunUntil(k.Now().Add(30 * sim.Minute))
	if !ready || serr != nil {
		return arm, nil, fmt.Errorf("experiments: recovery session setup: ready=%v err=%v", ready, serr)
	}

	sup, err := core.NewSupervisor(g, core.SupervisorConfig{
		CheckpointInterval: interval,
		StableNode:         "data",
		// The experiment measures recovery cost, not the give-up policy:
		// every crash schedule must run to completion.
		MaxRecoveries: 64,
	})
	if err != nil {
		return arm, nil, err
	}
	adopted, aerr := false, error(nil)
	if err := sup.Adopt(sess, func(err error) { aerr, adopted = err, true }); err != nil {
		return arm, nil, err
	}
	// Heartbeats keep the event queue non-empty forever, so drive the
	// kernel in bounded quanta rather than draining it.
	step := func(cap sim.Duration, cond func() bool) {
		deadline := k.Now().Add(cap)
		for !cond() && k.Now() < deadline {
			_ = k.RunUntil(k.Now().Add(sim.Minute))
		}
	}
	step(sim.Hour, func() bool { return adopted })
	if !adopted || aerr != nil {
		return arm, nil, fmt.Errorf("experiments: baseline checkpoint: adopted=%v err=%v", adopted, aerr)
	}

	var res guest.TaskResult
	var statsAt core.SupervisorStats
	leaseAlertsAt := 0
	finished := false
	if err := sup.Run(sess, guest.MicroTask(recoveryTaskSec), func(r guest.TaskResult) {
		res = r
		// Snapshot at completion: crashes striking after the task is done
		// must not leak into the cell's statistics.
		statsAt = sup.Stats()
		for _, f := range col.Firings() {
			if f.Rule == "stale-lease" {
				leaseAlertsAt++
			}
		}
		finished = true
	}); err != nil {
		return arm, nil, err
	}

	// The crash schedule is a pure function of the crash seed: interval
	// arms of one sample replay the same failure instants. Each event
	// crashes whichever node hosts the session at fire time (skipped
	// while it is already down or being restored) and reboots it 300 s
	// later.
	in := fault.NewSeeded(k, crashSeed)
	const outage = 300 * sim.Second
	for _, at := range in.Times(mtbf, 4*sim.Hour) {
		in.At(at, func() {
			if sess.State() != core.StateRunning {
				return
			}
			victim := sess.Node().Name()
			_ = g.CrashNode(victim)
			in.At(k.Now().Add(outage), func() { _ = g.RebootNode(victim) })
		})
	}

	step(24*sim.Hour, func() bool { return finished })
	sup.Stop()
	col.Stop()
	if !finished {
		return arm, nil, fmt.Errorf("experiments: recovery run never finished (state %q)", sess.State())
	}
	if res.Err != nil {
		return arm, nil, fmt.Errorf("experiments: recovery task: %w", res.Err)
	}
	return recoveryArm{
		CompletionSec: res.Elapsed().Seconds(),
		LostWorkSec:   statsAt.LostWorkSec,
		RepairSec:     statsAt.RepairSec,
		CkptCostSec:   statsAt.CheckpointSec,
		Crashes:       statsAt.Crashes,
		Recoveries:    statsAt.Recoveries,
		LeaseAlerts:   leaseAlertsAt,
	}, rec, nil
}

// RecoveryTable renders ablation G.
func RecoveryTable(rows []RecoveryRow) *Table {
	t := &Table{
		Title: "Ablation G: checkpoint interval vs failure rate (self-healing sessions)",
		Note: "1500 s task under Poisson node crashes (300 s outages); " +
			"MTTR = detection + restore + replay per recovery; " +
			"alerts = stale-lease telemetry firings per run (tracks crashes)",
		Header: []string{"MTBF (s)", "ckpt every (s)", "completion (s)", "crashes",
			"lost/rec (s)", "MTTR (s)", "avail", "ckpt cost (s)", "alerts"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", r.MTBFSec),
			fmt.Sprintf("%.0f", r.IntervalSec),
			f1(r.CompletionSec),
			f1(r.Crashes),
			f1(r.LostWorkSec),
			f1(r.MTTRSec),
			pct(r.Availability),
			f1(r.CkptCostSec),
			f1(r.AlertFirings),
		})
	}
	return t
}
