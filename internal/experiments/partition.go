package experiments

import (
	"errors"
	"fmt"

	"vmgrid/internal/core"
	"vmgrid/internal/fault"
	"vmgrid/internal/gis"
	"vmgrid/internal/guest"
	"vmgrid/internal/hw"
	"vmgrid/internal/sim"
)

// ---------------------------------------------------------------------
// Ablation H: partition duration × replica count (partition tolerance)
// ---------------------------------------------------------------------
//
// Ablation G measures crash recovery; this ablation measures the harder
// failure mode the paper's centralized information service cannot
// survive: a network partition where the old incarnation keeps running.
// A supervised task runs while the session's host is periodically cut
// off — sometimes symmetrically, sometimes one-way (outbound mute, the
// classic half-dead NIC) — under a registry replicated across 1, 3, or
// 5 nodes. Three invariants are enforced in-run, not just reported:
// no acknowledged registry write may be lost after the fabric heals, a
// task must complete exactly once (the fencing epoch rejects the
// marooned incarnation's result), and the replicas must reconverge.
// A violated invariant fails the whole experiment.

// PartitionRow aggregates one (partition duration, replica count) cell.
type PartitionRow struct {
	// Replicas is the registry replica count under test.
	Replicas int
	// PartitionSec is the injected partition duration.
	PartitionSec float64
	// CompletionSec is mean task time including every failover absorbed.
	CompletionSec float64
	// Failovers is the mean number of fenced failovers per run.
	Failovers float64
	// Fenced is the mean number of zombie results rejected per run.
	Fenced float64
	// AckedWrites is the mean number of acknowledged probe writes.
	AckedWrites float64
	// RejectedWrites is the mean number of probe writes refused with
	// ErrNoQuorum because their origin was on the minority side.
	RejectedWrites float64
	// MinorityWrites is the mean number of quorum-failed writes of any
	// kind (probes, lease renewals) observed by the cluster.
	MinorityWrites float64
	// SplitAlerts is the mean number of split-brain-risk telemetry
	// firings per run.
	SplitAlerts float64
}

// partitionArm is one simulated run at one replica count under one
// partition schedule.
type partitionArm struct {
	CompletionSec  float64
	Failovers      int
	Fenced         int
	AckedWrites    int
	RejectedWrites int
	MinorityWrites uint64
	SplitAlerts    int
}

// partitionTaskSec is the supervised workload for ablation H: long
// enough that the Poisson partition schedule lands several cuts.
const partitionTaskSec = 900

// partitionSamples is the default replicate count per duration.
const partitionSamples = 6

// probeKind tags the acked-durability probe records ablation H writes
// into the registry.
const probeKind = gis.Kind("bench-probe")

// AblationPartition sweeps partition duration × replica count. The
// design is paired: one sample is one (duration, replicate) pair whose
// partition schedule — instants, symmetric/one-way alternation, replica
// lag cuts — replays identically across all replica counts, so the
// replication columns compare the same outages. samples <= 0 selects
// the default replicate count.
func AblationPartition(seed uint64, samples, workers int) ([]PartitionRow, error) {
	durations := []sim.Duration{60 * sim.Second, 180 * sim.Second}
	counts := []int{1, 3, 5}
	if samples <= 0 {
		samples = partitionSamples
	}
	results, err := sweep(seed, len(durations), samples, len(counts), workers,
		func(c, a int, sseed uint64) (partitionArm, error) {
			return partitionRun(sseed, durations[c], counts[a])
		})
	if err != nil {
		return nil, err
	}
	rows := make([]PartitionRow, 0, len(durations)*len(counts))
	for di, dur := range durations {
		for ji, count := range counts {
			var sum partitionArm
			for _, a := range results[di][ji] {
				sum.CompletionSec += a.CompletionSec
				sum.Failovers += a.Failovers
				sum.Fenced += a.Fenced
				sum.AckedWrites += a.AckedWrites
				sum.RejectedWrites += a.RejectedWrites
				sum.MinorityWrites += a.MinorityWrites
				sum.SplitAlerts += a.SplitAlerts
			}
			n := float64(samples)
			rows = append(rows, PartitionRow{
				Replicas:       count,
				PartitionSec:   dur.Seconds(),
				CompletionSec:  sum.CompletionSec / n,
				Failovers:      float64(sum.Failovers) / n,
				Fenced:         float64(sum.Fenced) / n,
				AckedWrites:    float64(sum.AckedWrites) / n,
				RejectedWrites: float64(sum.RejectedWrites) / n,
				MinorityWrites: float64(sum.MinorityWrites) / n,
				SplitAlerts:    float64(sum.SplitAlerts) / n,
			})
		}
	}
	return rows, nil
}

// partitionRun simulates one supervised task to completion under one
// partition schedule with the registry replicated across count nodes.
// The topology is identical at every count — replica homes g2..g5 exist
// even when unused — so the fault schedule replays verbatim.
func partitionRun(seed uint64, dur sim.Duration, count int) (partitionArm, error) {
	var arm partitionArm
	tb := newTestbed(seed)
	g, k := tb.g, tb.k
	col, err := g.EnableTelemetry()
	if err != nil {
		return arm, err
	}
	if err := g.DefaultAlertRules(); err != nil {
		return arm, err
	}
	col.Start()
	if err := tb.lan(
		core.NodeConfig{Name: "front", Site: "a", Role: core.RoleFrontEnd},
		core.NodeConfig{Name: "c1", Site: "a", Role: core.RoleCompute, Slots: 1, DHCPPrefix: "10.1.0."},
		core.NodeConfig{Name: "c2", Site: "a", Role: core.RoleCompute, Slots: 1, DHCPPrefix: "10.1.1."},
		core.NodeConfig{Name: "data", Site: "a", Role: core.RoleDataServer},
		core.NodeConfig{Name: "g2", Site: "a", Role: core.RoleDataServer},
		core.NodeConfig{Name: "g3", Site: "a", Role: core.RoleDataServer},
		core.NodeConfig{Name: "g4", Site: "a", Role: core.RoleDataServer},
		core.NodeConfig{Name: "g5", Site: "a", Role: core.RoleDataServer},
	); err != nil {
		return arm, err
	}
	homes := []string{"data", "g2", "g3", "g4", "g5"}[:count]
	cl, err := g.EnableGISReplication(homes)
	if err != nil {
		return arm, err
	}
	img := benchImage
	img.MemBytes = 64 * hw.MB
	if err := tb.install(img, "c1", "c2"); err != nil {
		return arm, err
	}

	t0 := k.Now()
	sess, err := tb.session(benchSession, 30*sim.Minute)
	if err != nil {
		return arm, err
	}
	// Supervision starts half an hour after submission, as in Ablation G.
	_ = k.RunUntil(t0.Add(30 * sim.Minute))
	sup, err := tb.supervise(sess, core.SupervisorConfig{
		CheckpointInterval: 60 * sim.Second,
		StableNode:         "data",
		MaxRecoveries:      64,
	})
	if err != nil {
		return arm, err
	}

	completions := 0
	t, err := runTask(sup, sess, guest.MicroTask(partitionTaskSec), func() { completions++ })
	if err != nil {
		return arm, err
	}

	// Acked-durability probes: every 45 s a record is written into the
	// registry with no TTL, alternating between the front end and the
	// session's current host as origin. A write acked by a quorum must
	// survive the partition; a minority-side origin must be refused.
	var acked []string
	pn := 0
	var probeTick func()
	probeTick = func() {
		if t.done {
			return
		}
		origin := "front"
		if pn%2 == 1 && sess.State() == core.StateRunning {
			origin = sess.Node().Name()
		}
		name := fmt.Sprintf("probe-%d", pn)
		pn++
		err := g.Info().RegisterFrom(origin, probeKind, name, map[string]any{"n": pn}, 0)
		switch {
		case err == nil:
			acked = append(acked, name)
		case errors.Is(err, gis.ErrNoQuorum):
			arm.RejectedWrites++
		default:
			// Transient routing errors (origin mid-reboot) are neither
			// acked nor quorum rejections; ignore them.
		}
		k.After(45*sim.Second, probeTick)
	}
	k.After(45*sim.Second, probeTick)

	// The partition schedule is a pure function of the sample seed and
	// replays identically across replica-count arms. Each event cuts off
	// whichever node hosts the session — even events symmetrically, odd
	// events one-way (outbound mute: its heartbeats vanish while traffic
	// still reaches it) — and additionally severs g2's inbound side so a
	// replica falls behind and anti-entropy has something to repair.
	in := fault.NewSeeded(k, seed)
	for idx, at := range in.Times(12*sim.Minute, 2*sim.Hour) {
		oneWay := idx%2 == 1
		in.At(at, func() {
			if t.done || sess.State() != core.StateRunning {
				return
			}
			victim := sess.Node().Name()
			if oneWay {
				_ = g.Net().SetNodeDirUp(victim, true, false)
				in.At(k.Now().Add(dur), func() { _ = g.Net().SetNodeDirUp(victim, true, true) })
			} else {
				_ = g.Net().SetNodeUp(victim, false)
				in.At(k.Now().Add(dur), func() { _ = g.Net().SetNodeUp(victim, true) })
			}
			_ = g.Net().SetNodeDirUp("g2", false, false)
			in.At(k.Now().Add(dur), func() { _ = g.Net().SetNodeDirUp("g2", false, true) })
		})
	}

	res, err := tb.finish(t, 24*sim.Hour)
	if err != nil {
		return arm, err
	}

	// Let in-flight heals land and marooned incarnations surface, then
	// require anti-entropy to reconverge the replicas.
	_ = k.RunUntil(k.Now().Add(dur + 10*sim.Minute))
	tb.step(sim.Hour, cl.Converged)
	sup.Stop()
	col.Stop()

	// Invariant: exactly one completion. The fencing epoch must have
	// rejected every marooned incarnation's result.
	if completions != 1 {
		return arm, fmt.Errorf("experiments: partition run delivered %d completions, want 1", completions)
	}
	// Invariant: post-heal convergence.
	if !cl.Converged() {
		return arm, fmt.Errorf("experiments: replicas did not reconverge after heal")
	}
	// Invariant: no acked write lost — every acknowledged probe is
	// present on every replica once the fabric has healed.
	for _, name := range acked {
		for i := 0; i < cl.Size(); i++ {
			if _, err := cl.Replica(i).Lookup(probeKind, name); err != nil {
				return arm, fmt.Errorf("experiments: acked write %q lost on replica %s: %w",
					name, cl.Node(i), err)
			}
		}
	}

	st := sup.Stats()
	splitAlerts := 0
	for _, f := range col.Firings() {
		if f.Rule == "split-brain-risk" {
			splitAlerts++
		}
	}
	arm.CompletionSec = res.Elapsed().Seconds()
	arm.Failovers = st.Recoveries
	arm.Fenced = st.FencedResults
	arm.AckedWrites = len(acked)
	arm.MinorityWrites = cl.MinorityWrites()
	arm.SplitAlerts = splitAlerts
	return arm, nil
}

// PartitionTable renders ablation H.
func PartitionTable(rows []PartitionRow) *Table {
	t := &Table{
		Title: "Ablation H: partition duration vs replica count (fenced failover)",
		Note: "900 s task under Poisson host partitions (symmetric and one-way); " +
			"invariants enforced per run: no acked write lost, exactly one completion, " +
			"post-heal convergence",
		Header: []string{"replicas", "partition (s)", "completion (s)", "failovers",
			"fenced", "acked", "rejected", "minority", "alerts"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Replicas),
			fmt.Sprintf("%.0f", r.PartitionSec),
			f1(r.CompletionSec),
			f1(r.Failovers),
			f1(r.Fenced),
			f1(r.AckedWrites),
			f1(r.RejectedWrites),
			f1(r.MinorityWrites),
			f1(r.SplitAlerts),
		})
	}
	return t
}
