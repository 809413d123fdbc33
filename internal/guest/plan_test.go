package guest

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"vmgrid/internal/hostos"
	"vmgrid/internal/hw"
	"vmgrid/internal/sim"
	"vmgrid/internal/storage"
)

// planOps drains an ioPlan into a slice.
func planOps(w Workload) []ioOp {
	var p ioPlan
	p.start(&w)
	var ops []ioOp
	for ; p.more; p.advance() {
		ops = append(ops, p.op)
	}
	return ops
}

// refIOPlan is the historical materialized plan builder, kept as the
// reference the streaming ioPlan must reproduce bit for bit: a
// three-way merge of the data-read, root and data-write streams into
// one pre-sized slice.
func refIOPlan(w Workload) []ioOp {
	total := w.Reads + w.RootOps + w.Writes
	if total == 0 {
		return nil
	}
	dataMount := w.Mount
	if dataMount == "" {
		dataMount = "root"
	}
	var perRead, perRoot, perWrite int64
	if w.Reads > 0 {
		perRead = w.ReadBytes / int64(w.Reads)
	}
	if w.RootOps > 0 {
		perRoot = w.RootBytes / int64(w.RootOps)
	}
	if w.Writes > 0 {
		perWrite = w.WriteBytes / int64(w.Writes)
	}

	plan := make([]ioOp, 0, total)
	ri, oi, wi := 0, 0, 0
	inf := math.Inf(1)
	rt, ot, wt := inf, inf, inf
	if w.Reads > 0 {
		rt = w.CPUSeconds * float64(1) / float64(w.Reads+1)
	}
	if w.RootOps > 0 {
		ot = w.CPUSeconds * (float64(1)/float64(w.RootOps+1) + 1e-9)
	}
	if w.Writes > 0 {
		wt = w.CPUSeconds * (float64(1)/float64(w.Writes+1) + 2e-9)
	}
	for len(plan) < total {
		switch {
		case rt <= ot && rt <= wt:
			plan = append(plan, ioOp{
				threshold: rt, mount: dataMount,
				offset: perRead * int64(ri), bytes: perRead,
			})
			ri++
			rt = inf
			if ri < w.Reads {
				rt = w.CPUSeconds * float64(ri+1) / float64(w.Reads+1)
			}
		case ot <= wt:
			plan = append(plan, ioOp{
				threshold: ot, mount: "root",
				offset: perRoot * int64(oi), bytes: perRoot,
			})
			oi++
			ot = inf
			if oi < w.RootOps {
				ot = w.CPUSeconds * (float64(oi+1)/float64(w.RootOps+1) + 1e-9)
			}
		default:
			plan = append(plan, ioOp{
				threshold: wt, mount: dataMount,
				offset: perWrite * int64(wi), bytes: perWrite,
				write: true,
			})
			wi++
			wt = inf
			if wi < w.Writes {
				wt = w.CPUSeconds * (float64(wi+1)/float64(w.Writes+1) + 2e-9)
			}
		}
	}
	return plan
}

// TestIOPlanMatchesMaterializedBuilder: the streaming plan yields the
// historical builder's ops exactly, thresholds compared bit for bit,
// for the Table 1 workloads, the Figure 1 task, one-stream and empty
// workloads, and a mixed workload whose streams interleave.
func TestIOPlanMatchesMaterializedBuilder(t *testing.T) {
	workloads := []Workload{
		SPECseis96(),
		SPECclimate(),
		MicroTask(1),
		{Name: "reads-only", CPUSeconds: 37, Reads: 999, ReadBytes: 3 << 20, Mount: "data"},
		{Name: "root-only", CPUSeconds: 12.5, RootOps: 401, RootBytes: 7 << 20},
		{Name: "writes-only", CPUSeconds: 600, Writes: 600, WriteBytes: 48 << 20},
		{Name: "empty", CPUSeconds: 3},
		{Name: "mixed", CPUSeconds: 1000, Reads: 300, ReadBytes: 9 << 20, Mount: "data",
			RootOps: 200, RootBytes: 1 << 20, Writes: 100, WriteBytes: 5 << 20},
		{Name: "mixed-root", CPUSeconds: 77, Reads: 10, ReadBytes: 1000, RootOps: 10, RootBytes: 100, Writes: 10, WriteBytes: 10},
	}
	for _, w := range workloads {
		got, want := planOps(w), refIOPlan(w)
		if len(got) != len(want) {
			t.Errorf("%s: %d ops, want %d", w.Name, len(got), len(want))
			continue
		}
		for i := range want {
			g, r := got[i], want[i]
			if math.Float64bits(g.threshold) != math.Float64bits(r.threshold) ||
				g.mount != r.mount || g.offset != r.offset || g.bytes != r.bytes || g.write != r.write {
				t.Errorf("%s op %d: got %+v, want %+v", w.Name, i, g, r)
				break
			}
		}
	}
}

// TestRunMountErrorNamesFirstPlannedMount: with both mounts missing,
// Run names the mount the plan meets first, as the whole-plan walk did.
func TestRunMountErrorNamesFirstPlannedMount(t *testing.T) {
	for _, tc := range []struct {
		w    Workload
		want string
	}{
		// Reads start at 1/11 of the work, root ops at 1/3.
		{Workload{Name: "a", CPUSeconds: 10, Reads: 10, ReadBytes: 10, Mount: "data", RootOps: 2, RootBytes: 2}, `"data"`},
		// Root ops start at 1/3, data writes at 1/2.
		{Workload{Name: "b", CPUSeconds: 10, Writes: 1, WriteBytes: 1, Mount: "data", RootOps: 2, RootBytes: 2}, `"root"`},
		{Workload{Name: "c", CPUSeconds: 10, Writes: 4, WriteBytes: 4, Mount: "out"}, `"out"`},
	} {
		f := newPropFixture()
		_, err := f.os.Run(tc.w, nil)
		if err == nil || !strings.Contains(err.Error(), "mount "+tc.want+" not attached") {
			t.Errorf("%s: Run error = %v, want mount %s not attached", tc.w.Name, err, tc.want)
		}
	}
}

// TestRunAllocsIndependentOfOpCount: starting a task allocates the same
// objects and bytes whether its plan holds two ops or two hundred
// thousand; the plan streams instead of materializing a schedule.
func TestRunAllocsIndependentOfOpCount(t *testing.T) {
	measure := func(ops int) (objects float64, bytes uint64) {
		k := sim.NewKernel(1)
		h, err := hostos.New(k, hw.ReferenceMachine("p"))
		if err != nil {
			t.Fatal(err)
		}
		os := NewOS(NewNativeCPU(h.Spawn("t")))
		os.MarkBooted()
		os.Mount("root", storage.Backend(nil))
		os.Mount("data", storage.Backend(nil))
		w := Workload{Name: "n", CPUSeconds: 100, Reads: ops, ReadBytes: int64(ops) << 12, Mount: "data",
			RootOps: ops, RootBytes: int64(ops) << 10}
		run := func() {
			if _, err := os.Run(w, nil); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 50
		objects = testing.AllocsPerRun(runs, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return objects, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	smallObjs, smallBytes := measure(1)
	bigObjs, bigBytes := measure(100000)
	if bigObjs != smallObjs {
		t.Errorf("Run allocates %.1f objects with 200000 planned ops, %.1f with 2", bigObjs, smallObjs)
	}
	if bigBytes > smallBytes+256 {
		t.Errorf("Run allocates %d bytes with 200000 planned ops, %d with 2", bigBytes, smallBytes)
	}
}

// Property: the merged I/O plan is sorted by work threshold, covers the
// requested operation counts, routes each op to the right mount, and
// conserves bytes.
func TestIOPlanProperties(t *testing.T) {
	prop := func(readsRaw, rootRaw uint8, cpuRaw uint8) bool {
		w := Workload{
			Name:       "prop",
			CPUSeconds: float64(cpuRaw%100) + 1,
			Reads:      int(readsRaw % 64),
			ReadBytes:  int64(readsRaw%64) * 8192,
			Mount:      "data",
			RootOps:    int(rootRaw % 32),
			RootBytes:  int64(rootRaw%32) * 4096,
		}
		plan := planOps(w)
		if len(plan) != w.Reads+w.RootOps {
			return false
		}
		var dataOps, rootOps int
		var dataBytes, rootBytes int64
		last := -1.0
		for _, op := range plan {
			if op.threshold < last {
				return false // not sorted
			}
			last = op.threshold
			if op.threshold <= 0 || op.threshold >= w.CPUSeconds {
				return false // I/O points strictly inside the work
			}
			switch op.mount {
			case "data":
				dataOps++
				dataBytes += op.bytes
			case "root":
				rootOps++
				rootBytes += op.bytes
			default:
				return false
			}
		}
		if dataOps != w.Reads || rootOps != w.RootOps {
			return false
		}
		// Byte conservation up to integer division remainder.
		if w.Reads > 0 && (dataBytes > w.ReadBytes || dataBytes < w.ReadBytes-int64(w.Reads)) {
			return false
		}
		if w.RootOps > 0 && (rootBytes > w.RootBytes || rootBytes < w.RootBytes-int64(w.RootOps)) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIOPlanEmptyForPureCPU(t *testing.T) {
	if plan := planOps(MicroTask(5)); len(plan) != 0 {
		t.Errorf("pure CPU workload has %d planned ops", len(plan))
	}
}

func TestIOPlanDefaultMountIsRoot(t *testing.T) {
	w := Workload{Name: "x", CPUSeconds: 10, Reads: 4, ReadBytes: 4096}
	for _, op := range planOps(w) {
		if op.mount != "root" {
			t.Fatalf("unmounted reads routed to %q", op.mount)
		}
	}
}

// Property: a task's elapsed time on an otherwise idle native machine is
// at least its CPU time plus per-event native costs and never wildly
// more (no lost wakeups, no double charging).
func TestNativeElapsedBounds(t *testing.T) {
	prop := func(cpuRaw, privRaw uint8) bool {
		cpu := float64(cpuRaw%30) + 1
		priv := float64(privRaw) * 20
		f := newPropFixture()
		var elapsed float64
		w := Workload{Name: "b", CPUSeconds: cpu, PrivPerSec: priv}
		if _, err := f.os.Run(w, func(r TaskResult) { elapsed = r.Elapsed().Seconds() }); err != nil {
			return false
		}
		f.k.Run()
		ideal := cpu * (1 + priv*NativeCost.Seconds())
		return elapsed >= ideal-1e-6 && elapsed < ideal*1.001+1e-3
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// newPropFixture is a minimal native rig for property tests (no testing.T
// so it can live inside quick.Check closures).
func newPropFixture() *propFixture {
	k := sim.NewKernel(99)
	h, err := hostos.New(k, hw.ReferenceMachine("p"))
	if err != nil {
		panic(err)
	}
	os := NewOS(NewNativeCPU(h.Spawn("t")))
	os.MarkBooted()
	return &propFixture{k: k, os: os}
}

type propFixture struct {
	k  *sim.Kernel
	os *OS
}

// BenchmarkGuestTaskIO runs one task whose 1000 reads and 200 writes
// stream through a host-local root disk: the plan cursor, the per-op
// poll/issue/complete callbacks and the buffer cache, end to end.
func BenchmarkGuestTaskIO(b *testing.B) {
	k := sim.NewKernel(1)
	h, err := hostos.New(k, hw.ReferenceMachine("phys"))
	if err != nil {
		b.Fatal(err)
	}
	s := storage.NewStore(h)
	if err := s.Create("root.disk", 2<<30); err != nil {
		b.Fatal(err)
	}
	root, err := s.Open("root.disk")
	if err != nil {
		b.Fatal(err)
	}
	os := NewOS(NewNativeCPU(h.Spawn("task")))
	os.MarkBooted()
	os.Mount("root", root)
	w := Workload{Name: "io", CPUSeconds: 10, PrivPerSec: 100,
		Reads: 1000, ReadBytes: 8 << 20, Writes: 200, WriteBytes: 2 << 20}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := os.Run(w, nil); err != nil {
			b.Fatal(err)
		}
		k.Run()
	}
}
