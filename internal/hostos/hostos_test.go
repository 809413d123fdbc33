package hostos

import (
	"math"
	"testing"
	"testing/quick"

	"vmgrid/internal/hw"
	"vmgrid/internal/sim"
	"vmgrid/internal/trace"
)

func newHost(t *testing.T, k *sim.Kernel) *Host {
	t.Helper()
	h, err := New(k, hw.ReferenceMachine("n1"))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewRejectsBadSpec(t *testing.T) {
	k := sim.NewKernel(1)
	bad := hw.ReferenceMachine("n1")
	bad.CPU.Speed = 0
	if _, err := New(k, bad); err == nil {
		t.Fatal("New accepted invalid machine spec")
	}
}

func TestSingleProcessGetsFullCore(t *testing.T) {
	k := sim.NewKernel(1)
	h := newHost(t, k)
	p := h.Spawn("cpu-hog")
	p.SetDemand(1)
	if got := p.Rate(); got != h.Capacity() {
		t.Fatalf("solo rate = %v, want full capacity %v", got, h.Capacity())
	}
}

func TestTwoCPUBoundProcessesShare(t *testing.T) {
	k := sim.NewKernel(1)
	h := newHost(t, k)
	a := h.Spawn("a")
	b := h.Spawn("b")
	a.SetDemand(1)
	b.SetDemand(1)
	// Equal weights halve the core, minus context-switch overhead.
	eff := 1 - DefaultCtxSwitchCost.Seconds()/DefaultQuantum.Seconds()
	want := h.Capacity() / 2 * eff
	if math.Abs(a.Rate()-want) > 1e-9 || math.Abs(b.Rate()-want) > 1e-9 {
		t.Fatalf("rates = %v, %v; want %v each", a.Rate(), b.Rate(), want)
	}
}

func TestLightDemandIsSatisfiedFirst(t *testing.T) {
	k := sim.NewKernel(1)
	h := newHost(t, k)
	hog := h.Spawn("hog")
	light := h.Spawn("light")
	hog.SetDemand(1)
	light.SetDemand(0.2)
	eff := 1 - DefaultCtxSwitchCost.Seconds()/DefaultQuantum.Seconds()
	// Max-min fairness: light gets its 0.2, hog gets the remaining 0.8.
	if math.Abs(light.Rate()-0.2*eff) > 1e-9 {
		t.Errorf("light rate = %v, want %v", light.Rate(), 0.2*eff)
	}
	if math.Abs(hog.Rate()-0.8*eff) > 1e-9 {
		t.Errorf("hog rate = %v, want %v", hog.Rate(), 0.8*eff)
	}
}

func TestWeightsBiasAllocation(t *testing.T) {
	k := sim.NewKernel(1)
	h := newHost(t, k)
	a := h.Spawn("a")
	b := h.Spawn("b")
	a.SetWeight(3)
	a.SetDemand(1)
	b.SetDemand(1)
	eff := 1 - DefaultCtxSwitchCost.Seconds()/DefaultQuantum.Seconds()
	if math.Abs(a.Rate()-0.75*eff) > 1e-9 {
		t.Errorf("a rate = %v, want %v", a.Rate(), 0.75*eff)
	}
	if math.Abs(b.Rate()-0.25*eff) > 1e-9 {
		t.Errorf("b rate = %v, want %v", b.Rate(), 0.25*eff)
	}
}

func TestStopContSignals(t *testing.T) {
	k := sim.NewKernel(1)
	h := newHost(t, k)
	a := h.Spawn("a")
	b := h.Spawn("b")
	a.SetDemand(1)
	b.SetDemand(1)
	b.Stop()
	if !b.Stopped() {
		t.Fatal("b not stopped")
	}
	if b.Rate() != 0 {
		t.Errorf("stopped process has rate %v", b.Rate())
	}
	if a.Rate() != h.Capacity() {
		t.Errorf("a rate = %v after sibling stop, want full core", a.Rate())
	}
	b.Cont()
	if b.Rate() == 0 || a.Rate() == h.Capacity() {
		t.Error("Cont did not restore sharing")
	}
	// Double stop/cont are no-ops.
	b.Cont()
	b.Stop()
	b.Stop()
	b.Cont()
}

func TestExitRemovesProcess(t *testing.T) {
	k := sim.NewKernel(1)
	h := newHost(t, k)
	a := h.Spawn("a")
	b := h.Spawn("b")
	a.SetDemand(1)
	b.SetDemand(1)
	b.Exit()
	if !b.Exited() {
		t.Fatal("b not exited")
	}
	if len(h.Procs()) != 1 {
		t.Fatalf("process table has %d entries, want 1", len(h.Procs()))
	}
	if a.Rate() != h.Capacity() {
		t.Errorf("survivor rate = %v, want full core", a.Rate())
	}
	// Operations on an exited process are inert.
	b.SetDemand(1)
	b.Exit()
	if h.Runnable() != 1 {
		t.Errorf("Runnable = %d, want 1", h.Runnable())
	}
}

func TestRunWorkDuration(t *testing.T) {
	k := sim.NewKernel(1)
	h := newHost(t, k)
	p := h.Spawn("job")
	var doneAt sim.Time = -1
	p.RunWork(10, func() { doneAt = k.Now() })
	k.Run()
	if doneAt != sim.Time(10*sim.Second) {
		t.Fatalf("10 work units solo finished at %v, want 10s", doneAt)
	}
	if p.Demand() != 0 {
		t.Errorf("demand not cleared after completion: %v", p.Demand())
	}
}

func TestRunWorkUnderContention(t *testing.T) {
	k := sim.NewKernel(1)
	h := newHost(t, k)
	p := h.Spawn("job")
	loadProc := h.Spawn("load")
	loadProc.SetDemand(1)
	var doneAt sim.Time = -1
	p.RunWork(10, func() { doneAt = k.Now() })
	k.Run()
	// Two CPU-bound processes: job runs at ~half speed, so ~20s plus
	// context-switch overhead.
	eff := 1 - DefaultCtxSwitchCost.Seconds()/DefaultQuantum.Seconds()
	want := 20.0 / eff
	if math.Abs(doneAt.Seconds()-want) > 0.01 {
		t.Fatalf("contended completion at %vs, want ~%vs", doneAt.Seconds(), want)
	}
}

func TestSlowdownMatchesLoadAverage(t *testing.T) {
	// A CPU task under a constant background load u must see slowdown
	// ≈ 1+u — the basic premise behind the Figure 1 scenarios.
	for _, u := range []float64{0.25, 0.5, 0.75, 1.5} {
		k := sim.NewKernel(1)
		h := newHost(t, k)
		bg := h.Spawn("bg")
		bg.SetLoad(u)
		p := h.Spawn("test")
		var doneAt sim.Time
		p.RunWork(5, func() { doneAt = k.Now() })
		k.Run()
		slowdown := doneAt.Seconds() / 5.0
		if math.Abs(slowdown-(1+u)) > 0.03 {
			t.Errorf("u=%v: slowdown = %v, want ~%v", u, slowdown, 1+u)
		}
	}
}

func TestLoadProcessPlayback(t *testing.T) {
	k := sim.NewKernel(1)
	h := newHost(t, k)
	tr := &trace.Trace{Step: sim.Second, Loads: []float64{0.5}}
	lp := NewLoadProcess(h, "bg", tr)
	lp.Start()
	p := h.Spawn("test")
	var doneAt sim.Time
	p.RunWork(4, func() { doneAt = k.Now() })
	if err := k.RunUntil(sim.Time(sim.Minute)); err != nil {
		t.Fatal(err)
	}
	if math.Abs(doneAt.Seconds()-6.0) > 0.1 { // slowdown 1.5
		t.Errorf("completion at %vs, want ~6s under 0.5 load", doneAt.Seconds())
	}
	lp.Kill()
	if h.Runnable() != 0 {
		t.Errorf("Runnable = %d after kill", h.Runnable())
	}
}

// Property: rates never exceed demand*capacity, never go negative, and
// their sum never exceeds capacity.
func TestRebalanceInvariants(t *testing.T) {
	prop := func(demandsRaw []uint8, weightsRaw []uint8) bool {
		k := sim.NewKernel(9)
		h, err := New(k, hw.ReferenceMachine("n"))
		if err != nil {
			return false
		}
		n := len(demandsRaw)
		if n > 12 {
			n = 12
		}
		var procs []*Process
		for i := 0; i < n; i++ {
			p := h.Spawn("p")
			w := float64(1)
			if i < len(weightsRaw) {
				w = float64(weightsRaw[i]%5) + 1
			}
			p.SetWeight(w)
			p.SetDemand(float64(demandsRaw[i]%101) / 100.0)
			procs = append(procs, p)
		}
		var sum float64
		for _, p := range procs {
			r := p.Rate()
			if r < 0 || r > p.Demand()*h.Capacity()+1e-9 {
				return false
			}
			sum += r
		}
		return sum <= h.Capacity()+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBufferCacheHitAndMiss(t *testing.T) {
	k := sim.NewKernel(1)
	h := newHost(t, k)
	c := h.Cache()
	var first, second sim.Time
	c.Read(k, c.Intern("img"), 0, 128*1024, func() { first = k.Now() })
	k.Run()
	c.Read(k, c.Intern("img"), 0, 128*1024, func() { second = k.Now() })
	k.Run()
	if c.Misses() == 0 {
		t.Fatal("first read recorded no misses")
	}
	if c.Hits() == 0 {
		t.Fatal("second read recorded no hits")
	}
	missTime := first.Sub(0)
	hitTime := second.Sub(first)
	if hitTime >= missTime {
		t.Errorf("cached read (%v) not faster than device read (%v)", hitTime, missTime)
	}
}

func TestBufferCacheWriteMakesResident(t *testing.T) {
	k := sim.NewKernel(1)
	h := newHost(t, k)
	c := h.Cache()
	c.WriteSequential(k, c.Intern("copy"), 0, 1<<20, nil)
	k.Run()
	start := k.Now()
	var doneAt sim.Time
	c.Read(k, c.Intern("copy"), 0, 1<<20, func() { doneAt = k.Now() })
	k.Run()
	if doneAt.Sub(start) > sim.Millisecond {
		t.Errorf("read-after-write took %v, want cache hit", doneAt.Sub(start))
	}
}

func TestBufferCacheEviction(t *testing.T) {
	k := sim.NewKernel(1)
	disk := hw.NewDisk(k, hw.ReferenceMachine("n").Disk)
	c := NewBufferCache(disk, 4*CachePageSize)
	for i := int64(0); i < 8; i++ {
		c.Write(k, c.Intern("f"), i*CachePageSize, CachePageSize, nil)
	}
	k.Run()
	if c.CachedBytes() > c.Capacity() {
		t.Fatalf("cache over capacity: %d > %d", c.CachedBytes(), c.Capacity())
	}
	// The earliest pages must have been evicted.
	before := c.Misses()
	c.Read(k, c.Intern("f"), 0, CachePageSize, nil)
	k.Run()
	if c.Misses() == before {
		t.Error("evicted page served as hit")
	}
}

func TestBufferCacheInvalidate(t *testing.T) {
	k := sim.NewKernel(1)
	h := newHost(t, k)
	c := h.Cache()
	c.Write(k, c.Intern("a"), 0, CachePageSize, nil)
	c.Write(k, c.Intern("b"), 0, CachePageSize, nil)
	k.Run()
	c.Invalidate("a")
	before := c.Misses()
	c.Read(k, c.Intern("a"), 0, CachePageSize, nil)
	k.Run()
	if c.Misses() == before {
		t.Error("invalidated page served as hit")
	}
	hitsBefore := c.Hits()
	c.Read(k, c.Intern("b"), 0, CachePageSize, nil)
	k.Run()
	if c.Hits() == hitsBefore {
		t.Error("unrelated file was invalidated too")
	}
}

func TestZeroCapacityCacheAlwaysMisses(t *testing.T) {
	k := sim.NewKernel(1)
	disk := hw.NewDisk(k, hw.ReferenceMachine("n").Disk)
	c := NewBufferCache(disk, 0)
	c.Read(k, c.Intern("f"), 0, CachePageSize, nil)
	c.Read(k, c.Intern("f"), 0, CachePageSize, nil)
	k.Run()
	if c.Hits() != 0 {
		t.Errorf("zero-capacity cache recorded %d hits", c.Hits())
	}
}
