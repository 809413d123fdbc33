package experiments

import (
	"fmt"

	"vmgrid/internal/core"
	"vmgrid/internal/fault"
	"vmgrid/internal/guest"
	"vmgrid/internal/hw"
	"vmgrid/internal/obs"
	"vmgrid/internal/sim"
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
	type run struct {
		arm recoveryArm
		rec *obs.FlightRecorder
	}
	results, err := sweep(seed, len(mtbfs), samples, len(intervals), workers,
		func(c, a int, sseed uint64) (run, error) {
			arm, rec, err := recoveryRun(sseed, mtbfs[c], intervals[a], set != nil)
			return run{arm, rec}, err
		})
	if err != nil {
		return nil, err
	}
	// Incidents are laid out cell by cell, sample by sample, interval
	// by interval: a fixed order, whatever the worker interleaving.
	if set != nil {
		for mi, mtbf := range mtbfs {
			for si := 0; si < samples; si++ {
				for ji, iv := range intervals {
					set.Add(fmt.Sprintf("recovery/mtbf-%.0fs/ckpt-%.0fs/%d",
						mtbf.Seconds(), iv.Seconds(), si), results[mi][ji][si].rec)
				}
			}
		}
	}
	rows := make([]RecoveryRow, 0, len(mtbfs)*len(intervals))
	for mi, mtbf := range mtbfs {
		for ji, iv := range intervals {
			var sum recoveryArm
			for _, r := range results[mi][ji] {
				a := r.arm
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
	tb := newTestbed(crashSeed)
	g, k := tb.g, tb.k
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
	if err := tb.lan(
		core.NodeConfig{Name: "front", Site: "a", Role: core.RoleFrontEnd},
		core.NodeConfig{Name: "c1", Site: "a", Role: core.RoleCompute, Slots: 1, DHCPPrefix: "10.1.0."},
		core.NodeConfig{Name: "c2", Site: "a", Role: core.RoleCompute, Slots: 1, DHCPPrefix: "10.1.1."},
		core.NodeConfig{Name: "data", Site: "a", Role: core.RoleDataServer},
	); err != nil {
		return arm, nil, err
	}
	// A modest warm image bounds the per-checkpoint staging cost so the
	// interval sweep exercises a real overhead/recovery trade-off.
	img := benchImage
	img.MemBytes = 64 * hw.MB
	if err := tb.install(img, "c1", "c2"); err != nil {
		return arm, nil, err
	}

	t0 := k.Now()
	sess, err := tb.session(benchSession, 30*sim.Minute)
	if err != nil {
		return arm, nil, err
	}
	// Supervision starts half an hour after submission, wherever in
	// that window the session came up.
	_ = k.RunUntil(t0.Add(30 * sim.Minute))
	sup, err := tb.supervise(sess, core.SupervisorConfig{
		CheckpointInterval: interval,
		StableNode:         "data",
		// The experiment measures recovery cost, not the give-up policy:
		// every crash schedule must run to completion.
		MaxRecoveries: 64,
	})
	if err != nil {
		return arm, nil, err
	}

	var statsAt core.SupervisorStats
	leaseAlertsAt := 0
	t, err := runTask(sup, sess, guest.MicroTask(recoveryTaskSec), func() {
		// Snapshot at completion: crashes striking after the task is done
		// must not leak into the cell's statistics.
		statsAt = sup.Stats()
		for _, f := range col.Firings() {
			if f.Rule == "stale-lease" {
				leaseAlertsAt++
			}
		}
	})
	if err != nil {
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

	res, err := tb.finish(t, 24*sim.Hour)
	if err != nil {
		return arm, nil, err
	}
	sup.Stop()
	col.Stop()
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
