package experiments

import (
	"fmt"
	"sort"

	"vmgrid/internal/core"
	"vmgrid/internal/guest"
	"vmgrid/internal/hw"
	"vmgrid/internal/placement"
	"vmgrid/internal/sim"
)

// ---------------------------------------------------------------------
// Ablation I: placement policy × autonomic balancer (skewed arrivals)
// ---------------------------------------------------------------------
//
// The paper's application perspective (§3.2) has the middleware adapt
// placement to resource dynamics. This ablation measures the whole
// adaptation loop end to end: sessions arrive in bursts (a skewed
// arrival pattern that piles load onto whichever node ranks first),
// placed by a swept policy, while the autonomic balancer — driven by
// the telemetry pipeline's predicted-load series — optionally relieves
// sustained hotspots with fenced live migrations. Reported per arm:
// p50/p99 task slowdown (elapsed over demanded CPU-seconds; the cost
// users feel from co-location) and the node-utilization spread (the
// imbalance the policy left behind).

// balanceSamples is the default replicate count.
const balanceSamples = 4

// BalanceRow aggregates one (policy, balancer on/off) arm.
type BalanceRow struct {
	// Policy is the placement policy under test.
	Policy string
	// Balancer reports whether the autonomic balancer ran.
	Balancer bool
	// P50 and P99 are slowdown percentiles pooled over every task of
	// every sample (slowdown = elapsed / demanded CPU-seconds; 1.0 is a
	// task that never shared its node).
	P50 float64
	P99 float64
	// SpreadLoad is the mean over samples of (max − min) per-node mean
	// load — how unevenly the arm used the three compute nodes.
	SpreadLoad float64
	// Migrations is the mean number of balancer migrations per run.
	Migrations float64
}

// balanceArm is one simulated run of the burst workload under one
// (policy, balancer) combination.
type balanceArm struct {
	Slowdowns  []float64
	Spread     float64
	Migrations int
}

// balanceOffsets staggers the nine session arrivals into three bursts —
// the skew that separates the policies. Within a burst the sessions
// land faster than load signals move, so a policy that keeps ranking
// the same node first stacks the whole burst there.
var balanceOffsets = []sim.Duration{
	0, 1 * sim.Second, 2 * sim.Second, 3 * sim.Second,
	150 * sim.Second, 151 * sim.Second, 152 * sim.Second,
	300 * sim.Second, 301 * sim.Second,
}

// balanceArms are the swept placement policies, each without and with
// the balancer, in report order.
var balanceArms = []struct {
	policy  string
	placer  placement.Placer
	balance bool
}{
	{"least-loaded", placement.LeastLoaded{}, false},
	{"least-loaded", placement.LeastLoaded{}, true},
	{"predicted-load", placement.PredictedLoad{}, false},
	{"predicted-load", placement.PredictedLoad{}, true},
	{"pack", placement.Pack{}, false},
	{"pack", placement.Pack{}, true},
}

// AblationBalance sweeps placement policy × balancer on/off over the
// burst workload. The design is paired: one sample is one replicate
// whose per-task CPU demands — drawn from the sample's seed — replay
// identically across all six arms, so arms compare the same work.
// samples <= 0 selects the default replicate count; samples fan out
// across workers goroutines and the tables are byte-identical at any
// worker count.
func AblationBalance(seed uint64, samples, workers int) ([]BalanceRow, error) {
	if samples <= 0 {
		samples = balanceSamples
	}
	results, err := sweep(seed, 1, samples, len(balanceArms), workers,
		func(_, a int, sseed uint64) (balanceArm, error) {
			return balanceRun(sseed, balanceArms[a].placer, balanceArms[a].balance)
		})
	if err != nil {
		return nil, err
	}
	rows := make([]BalanceRow, 0, len(balanceArms))
	for ai, arm := range balanceArms {
		var pooled []float64
		var spread float64
		var migrations int
		for _, a := range results[0][ai] {
			pooled = append(pooled, a.Slowdowns...)
			spread += a.Spread
			migrations += a.Migrations
		}
		rows = append(rows, BalanceRow{
			Policy:     arm.policy,
			Balancer:   arm.balance,
			P50:        quantile(pooled, 0.50),
			P99:        quantile(pooled, 0.99),
			SpreadLoad: spread / float64(samples),
			Migrations: float64(migrations) / float64(samples),
		})
	}
	return rows, nil
}

// quantile is the nearest-rank quantile of vs (not mutated).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	rank := int(q*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// balanceRun simulates the nine-session burst workload to completion on
// three compute nodes: every session is created through the policy
// under test, runs one CPU-bound task, and (when balance is set) the
// autonomic balancer watches predicted load and relieves sustained
// hotspots with fenced live migrations. The per-task CPU demands are
// drawn from seed, so every arm of a sample runs the same work.
func balanceRun(seed uint64, placer placement.Placer, balance bool) (balanceArm, error) {
	var arm balanceArm
	rng := sim.NewRNG(seed)
	demands := make([]float64, len(balanceOffsets))
	for j := range demands {
		demands[j] = rng.Uniform(180, 420)
	}
	tb := newTestbed(seed)
	g, k := tb.g, tb.k
	// The telemetry pipeline supplies the balancer's load signal (the
	// monitor's predicted-load series lands in the TSDB via the scrape
	// loop) and the per-node utilization series the spread is read from.
	col, err := g.EnableTelemetry()
	if err != nil {
		return arm, err
	}
	col.Want("node.load") // the spread below
	col.Start()
	computes := []string{"c1", "c2", "c3"}
	if err := tb.lan(
		core.NodeConfig{Name: "front", Site: "a", Role: core.RoleFrontEnd},
		core.NodeConfig{Name: "c1", Site: "a", Role: core.RoleCompute, Slots: 4, DHCPPrefix: "10.1.0."},
		core.NodeConfig{Name: "c2", Site: "a", Role: core.RoleCompute, Slots: 4, DHCPPrefix: "10.1.1."},
		core.NodeConfig{Name: "c3", Site: "a", Role: core.RoleCompute, Slots: 4, DHCPPrefix: "10.1.2."},
		core.NodeConfig{Name: "data", Site: "a", Role: core.RoleDataServer},
	); err != nil {
		return arm, err
	}
	img := benchImage
	img.MemBytes = 64 * hw.MB
	if err := tb.install(img, computes...); err != nil {
		return arm, err
	}
	// The monitor feeds the predicted-load policy and the balancer: raw
	// 1 s load samples, AR forecasts republished into the VM futures.
	mon, err := g.StartMonitor()
	if err != nil {
		return arm, err
	}
	defer mon.Stop()

	var bal *placement.Balancer
	if balance {
		bal, err = g.StartBalancer()
		if err != nil {
			return arm, err
		}
		defer bal.Stop()
	}

	slowdowns := make([]float64, len(demands))
	finished := 0
	for j, offset := range balanceOffsets {
		j, demand := j, demands[j]
		k.After(offset, func() {
			if _, err := g.CreateSession(benchSession, func(s *core.Session, err error) {
				if err != nil {
					tb.fail(err)
					finished++ // count it done so the run terminates
					return
				}
				start := k.Now()
				if err := s.Run(guest.MicroTask(demand), func(res guest.TaskResult) {
					tb.fail(res.Err)
					slowdowns[j] = k.Now().Sub(start).Seconds() / demand
					finished++
				}); err != nil {
					tb.fail(err)
					finished++
				}
			}, core.WithPlacer(placer)); err != nil {
				tb.fail(err)
				finished++
			}
		})
	}

	tb.step(12*sim.Hour, func() bool { return finished >= len(demands) })
	if bal != nil {
		bal.Stop()
		arm.Migrations = bal.Stats().Migrations
	}
	col.Stop()
	if tb.err != nil {
		return arm, tb.err
	}
	if finished < len(demands) {
		return arm, fmt.Errorf("experiments: balance run stalled at %d/%d tasks", finished, len(demands))
	}
	// Node-utilization spread: max − min of the per-node mean load over
	// the whole run, from the telemetry node.load series.
	db := col.DB()
	minMean, maxMean := 0.0, 0.0
	for i, n := range computes {
		mean := 0.0
		if s := db.Lookup("node.load{node=" + n + "}"); s != nil && s.Len() > 0 {
			mean = s.Window(0).Mean
		}
		if i == 0 || mean < minMean {
			minMean = mean
		}
		if mean > maxMean {
			maxMean = mean
		}
	}
	arm.Spread = maxMean - minMean
	arm.Slowdowns = slowdowns
	return arm, nil
}

// BalanceTable renders ablation I.
func BalanceTable(rows []BalanceRow) *Table {
	t := &Table{
		Title: "Ablation I: placement policy vs autonomic balancer (skewed arrivals)",
		Note: "9 sessions in 3 bursts on 3 compute nodes; slowdown = elapsed / demanded " +
			"CPU-seconds; spread = max-min per-node mean load; migrations are balancer-driven " +
			"fenced live migrations per run",
		Header: []string{"policy", "balancer", "p50 slowdown", "p99 slowdown",
			"load spread", "migrations"},
	}
	for _, r := range rows {
		onOff := "off"
		if r.Balancer {
			onOff = "on"
		}
		t.Rows = append(t.Rows, []string{
			r.Policy,
			onOff,
			f2(r.P50),
			f2(r.P99),
			f2(r.SpreadLoad),
			f1(r.Migrations),
		})
	}
	return t
}
