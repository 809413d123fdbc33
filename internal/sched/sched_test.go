package sched

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"vmgrid/internal/hostos"
	"vmgrid/internal/hw"
	"vmgrid/internal/sim"
)

func TestLotteryProportionalShares(t *testing.T) {
	l, err := NewLottery(sim.NewRNG(1), 700, 200, 100)
	if err != nil {
		t.Fatal(err)
	}
	shares := Shares(l, 100000)
	want := []float64{0.7, 0.2, 0.1}
	for i := range want {
		if math.Abs(shares[i]-want[i]) > 0.01 {
			t.Errorf("client %d share = %v, want ~%v", i, shares[i], want[i])
		}
	}
	wins := l.Wins()
	var total uint64
	for _, w := range wins {
		total += w
	}
	if total != 100000 {
		t.Errorf("total wins = %d", total)
	}
}

func TestLotteryValidation(t *testing.T) {
	rng := sim.NewRNG(1)
	if _, err := NewLottery(rng); err == nil {
		t.Error("empty lottery accepted")
	}
	if _, err := NewLottery(rng, -1, 2); err == nil {
		t.Error("negative tickets accepted")
	}
	if _, err := NewLottery(rng, 0, 0); err == nil {
		t.Error("zero-ticket lottery accepted")
	}
}

func TestLotterySetShare(t *testing.T) {
	l, err := NewLottery(sim.NewRNG(2), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SetShare(0, 3); err != nil {
		t.Fatal(err)
	}
	shares := Shares(l, 50000)
	if math.Abs(shares[0]-0.75) > 0.02 {
		t.Errorf("share after SetShare = %v, want ~0.75", shares[0])
	}
	if err := l.SetShare(5, 1); err == nil {
		t.Error("out-of-range SetShare accepted")
	}
}

func TestWFQExactShares(t *testing.T) {
	w, err := NewWFQ(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	shares := Shares(w, 4000)
	if math.Abs(shares[0]-0.75) > 0.001 || math.Abs(shares[1]-0.25) > 0.001 {
		t.Errorf("WFQ shares = %v, want [0.75 0.25] exactly-ish", shares)
	}
}

func TestWFQShortTermFairnessBeatsLottery(t *testing.T) {
	// Over short windows, WFQ's worst-case deviation from the ideal
	// share must be smaller than the lottery's — the determinism
	// argument for compiled real-time-ish schedules.
	const window = 100
	const windows = 200
	wfq, _ := NewWFQ(1, 1)
	lot, _ := NewLottery(sim.NewRNG(3), 1, 1)
	maxDev := func(s QuantumScheduler) float64 {
		worst := 0.0
		for w := 0; w < windows; w++ {
			c0 := 0
			for q := 0; q < window; q++ {
				if s.Next() == 0 {
					c0++
				}
			}
			if d := math.Abs(float64(c0)/window - 0.5); d > worst {
				worst = d
			}
		}
		return worst
	}
	if devW, devL := maxDev(wfq), maxDev(lot); devW >= devL {
		t.Errorf("WFQ worst window deviation %v not better than lottery %v", devW, devL)
	}
}

func TestWFQValidation(t *testing.T) {
	if _, err := NewWFQ(); err == nil {
		t.Error("empty WFQ accepted")
	}
	if _, err := NewWFQ(1, 0); err == nil {
		t.Error("zero weight accepted")
	}
	w, _ := NewWFQ(1, 1)
	if err := w.SetShare(0, -1); err == nil {
		t.Error("negative SetShare accepted")
	}
}

// Property: lottery shares converge to ticket ratios for arbitrary
// ticket vectors.
func TestLotteryConvergenceProperty(t *testing.T) {
	prop := func(rawA, rawB uint8) bool {
		a := float64(rawA%20) + 1
		b := float64(rawB%20) + 1
		l, err := NewLottery(sim.NewRNG(uint64(rawA)*256+uint64(rawB)), a, b)
		if err != nil {
			return false
		}
		shares := Shares(l, 30000)
		want := a / (a + b)
		return math.Abs(shares[0]-want) < 0.03
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestModulatorEnforcesShare(t *testing.T) {
	k := sim.NewKernel(1)
	h, err := hostos.New(k, hw.ReferenceMachine("n"))
	if err != nil {
		t.Fatal(err)
	}
	proc := h.Spawn("vm")
	m, err := NewModulator(k, proc, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	var doneAt sim.Time = -1
	proc.RunWork(8, func() { doneAt = k.Now() })
	if err := k.RunUntil(sim.Time(sim.Minute)); err != nil {
		t.Fatal(err)
	}
	if doneAt < 0 {
		t.Fatal("work never finished under modulation")
	}
	// 8 work units at 40% duty cycle ≈ 20 s.
	if math.Abs(doneAt.Seconds()-20) > 1.0 {
		t.Errorf("modulated completion at %vs, want ~20s", doneAt.Seconds())
	}
	m.Stop()
	if proc.Stopped() {
		t.Error("Stop left the process stopped")
	}
}

func TestModulatorExtremes(t *testing.T) {
	k := sim.NewKernel(1)
	h, _ := hostos.New(k, hw.ReferenceMachine("n"))
	full := h.Spawn("full")
	m1, err := NewModulator(k, full, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	m1.Start()
	var fullAt sim.Time
	full.RunWork(2, func() { fullAt = k.Now() })
	if err := k.RunUntil(sim.Time(10 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if math.Abs(fullAt.Seconds()-2) > 0.05 {
		t.Errorf("share-1.0 modulation slowed work: %v", fullAt)
	}
	m1.Stop()

	zero := h.Spawn("zero")
	m0, err := NewModulator(k, zero, 0)
	if err != nil {
		t.Fatal(err)
	}
	m0.Start()
	finished := false
	zero.RunWork(0.5, func() { finished = true })
	_ = k.RunUntil(k.Now().Add(5 * sim.Second))
	if finished {
		t.Error("share-0 process made progress")
	}
	m0.Stop()
	k.Run()
	if !finished {
		t.Error("work stuck after modulator release")
	}
}

func TestModulatorValidation(t *testing.T) {
	k := sim.NewKernel(1)
	h, _ := hostos.New(k, hw.ReferenceMachine("n"))
	p := h.Spawn("x")
	if _, err := NewModulator(k, p, 1.5); err == nil {
		t.Error("share > 1 accepted")
	}
	m, _ := NewModulator(k, p, 0.5)
	if err := m.SetShare(-0.1); err == nil {
		t.Error("negative SetShare accepted")
	}
	if err := m.SetShare(0.8); err != nil || m.Share() != 0.8 {
		t.Error("SetShare failed")
	}
}

const examplePolicy = `
# Desktop owner policy: keep a quarter for interactive use,
# cap the untrusted guest, favor the paying one.
policy desktop-owner
reserve 25%
limit vmm:guest-a 50%
weight vmm:guest-b 2
`

func TestParsePolicy(t *testing.T) {
	p, err := ParsePolicy(examplePolicy)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "desktop-owner" {
		t.Errorf("Name = %q", p.Name)
	}
	if p.Reserve != 0.25 {
		t.Errorf("Reserve = %v", p.Reserve)
	}
	if len(p.Rules) != 2 {
		t.Fatalf("Rules = %v", p.Rules)
	}
	if p.Rules[0] != (Rule{Kind: RuleLimit, Target: "vmm:guest-a", Value: 0.5}) {
		t.Errorf("rule 0 = %+v", p.Rules[0])
	}
	if p.Rules[1] != (Rule{Kind: RuleWeight, Target: "vmm:guest-b", Value: 2}) {
		t.Errorf("rule 1 = %+v", p.Rules[1])
	}
}

func TestParsePolicyErrors(t *testing.T) {
	bad := []string{
		"policy",                       // missing name
		"reserve",                      // missing value
		"reserve 150%",                 // out of range
		"limit vm1",                    // missing value
		"limit vm1 -5%",                // negative
		"weight vm1 zero",              // not a number
		"weight vm1 0",                 // non-positive
		"frobnicate vm1 3",             // unknown directive
		"limit vm1 10%\nlimit vm1 20%", // duplicate rule
	}
	for _, src := range bad {
		if _, err := ParsePolicy(src); err == nil {
			t.Errorf("ParsePolicy accepted %q", src)
		}
	}
}

func TestCompileAppliesPolicy(t *testing.T) {
	k := sim.NewKernel(1)
	h, err := hostos.New(k, hw.ReferenceMachine("n"))
	if err != nil {
		t.Fatal(err)
	}
	a := h.Spawn("vmm:guest-a")
	b := h.Spawn("vmm:guest-b")
	p, err := ParsePolicy(examplePolicy)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Compile(k, h, p)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Release()

	if b.Weight() != 2 {
		t.Errorf("weight rule not applied: %v", b.Weight())
	}
	if e.Modulator("vmm:guest-a") == nil {
		t.Fatal("limit rule did not attach a modulator")
	}

	// guest-a is capped at 50% even with the machine otherwise idle
	// (modulo the owner reservation taking its cut).
	var doneAt sim.Time = -1
	a.RunWork(4, func() { doneAt = k.Now() })
	if err := k.RunUntil(sim.Time(sim.Minute)); err != nil {
		t.Fatal(err)
	}
	if doneAt < 0 {
		t.Fatal("capped work never finished")
	}
	if doneAt.Seconds() < 7.5 {
		t.Errorf("guest-a finished 4 units in %vs; 50%% cap not enforced", doneAt.Seconds())
	}
}

func TestCompileUnknownTarget(t *testing.T) {
	k := sim.NewKernel(1)
	h, _ := hostos.New(k, hw.ReferenceMachine("n"))
	p, err := ParsePolicy("limit ghost 10%")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(k, h, p); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("Compile with unknown target = %v", err)
	}
}

func TestReserveHoldsCapacity(t *testing.T) {
	k := sim.NewKernel(1)
	h, _ := hostos.New(k, hw.ReferenceMachine("n"))
	vm := h.Spawn("vm")
	p, err := ParsePolicy("reserve 50%")
	if err != nil {
		t.Fatal(err)
	}
	e, err := Compile(k, h, p)
	if err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time = -1
	vm.RunWork(2, func() { doneAt = k.Now() })
	_ = k.RunUntil(sim.Time(sim.Minute)) // queue may drain once the work completes
	if doneAt < 0 {
		t.Fatal("reserved work never finished")
	}
	// With half the machine reserved, 2 units take ~4 s.
	if doneAt.Seconds() < 3.5 {
		t.Errorf("reserved capacity leaked to the VM: done at %vs", doneAt.Seconds())
	}
	e.Release()
	var secondAt sim.Time = -1
	start := k.Now()
	vm.RunWork(2, func() { secondAt = k.Now() })
	k.Run()
	if got := secondAt.Sub(start).Seconds(); math.Abs(got-2) > 0.1 {
		t.Errorf("after Release, 2 units took %vs, want ~2s", got)
	}
}
