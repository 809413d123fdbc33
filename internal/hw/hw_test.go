package hw

import (
	"testing"

	"vmgrid/internal/sim"
)

func TestSpecValidation(t *testing.T) {
	ref := ReferenceMachine("n1")
	if err := ref.Validate(); err != nil {
		t.Fatalf("reference machine invalid: %v", err)
	}
	if err := ServerMachine("s1").Validate(); err != nil {
		t.Fatalf("server machine invalid: %v", err)
	}

	tests := []struct {
		name string
		mut  func(*MachineSpec)
	}{
		{"empty name", func(m *MachineSpec) { m.Name = "" }},
		{"zero cpu speed", func(m *MachineSpec) { m.CPU.Speed = 0 }},
		{"zero cores", func(m *MachineSpec) { m.CPU.Cores = 0 }},
		{"zero disk bw", func(m *MachineSpec) { m.Disk.BandwidthBps = 0 }},
		{"negative seek", func(m *MachineSpec) { m.Disk.SeekTime = -1 }},
		{"zero memory", func(m *MachineSpec) { m.MemBytes = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := ReferenceMachine("n1")
			tt.mut(&m)
			if err := m.Validate(); err == nil {
				t.Errorf("Validate() accepted bad spec")
			}
		})
	}
}

func TestDiskSingleRequestTime(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDisk(k, DiskSpec{SeekTime: 5 * sim.Millisecond, BandwidthBps: 1e6})
	var doneAt sim.Time = -1
	d.Submit(1e6, func() { doneAt = k.Now() }) // 1 MB at 1 MB/s + 5ms seek
	k.Run()
	want := sim.Time(sim.Second + 5*sim.Millisecond)
	if doneAt != want {
		t.Fatalf("completion at %v, want %v", doneAt, want)
	}
	if d.Requests() != 1 {
		t.Errorf("Requests = %d", d.Requests())
	}
	if d.BytesTransferred() != 1e6 {
		t.Errorf("BytesTransferred = %d", d.BytesTransferred())
	}
}

func TestDiskFIFOQueueing(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDisk(k, DiskSpec{SeekTime: 10 * sim.Millisecond, BandwidthBps: 1e6})
	var order []int
	var times []sim.Time
	for i := 0; i < 3; i++ {
		i := i
		d.Submit(1e5, func() { // each: 10ms seek + 100ms transfer
			order = append(order, i)
			times = append(times, k.Now())
		})
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
	per := sim.Duration(110 * sim.Millisecond)
	for i, at := range times {
		want := sim.Time(0).Add(per * sim.Duration(i+1))
		if at != want {
			t.Errorf("request %d done at %v, want %v", i, at, want)
		}
	}
}

func TestDiskSequentialSkipsSeek(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDisk(k, DiskSpec{SeekTime: 10 * sim.Millisecond, BandwidthBps: 1e6})
	var doneAt sim.Time
	d.SubmitSequential(1e6, nil)
	d.SubmitSequential(1e6, func() { doneAt = k.Now() })
	k.Run()
	if doneAt != sim.Time(2*sim.Second) {
		t.Fatalf("sequential pair finished at %v, want 2s (no seeks)", doneAt)
	}
}

func TestDiskZeroSizeRequest(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDisk(k, DiskSpec{SeekTime: 2 * sim.Millisecond, BandwidthBps: 1e6})
	var doneAt sim.Time = -1
	d.Submit(0, func() { doneAt = k.Now() })
	k.Run()
	if doneAt != sim.Time(2*sim.Millisecond) {
		t.Fatalf("zero-size request at %v, want seek only", doneAt)
	}
	// Negative sizes are clamped rather than corrupting the queue.
	d.Submit(-5, nil)
	k.Run()
}

func TestDiskInterleavedStreamsShareDevice(t *testing.T) {
	// Two streams submitting alternately must each see ~half the
	// device throughput (here: strict FIFO alternation).
	k := sim.NewKernel(1)
	d := NewDisk(k, DiskSpec{SeekTime: 0, BandwidthBps: 1e6})
	var aDone, bDone sim.Time
	var submitA, submitB func(n int)
	submitA = func(n int) {
		if n == 0 {
			aDone = k.Now()
			return
		}
		d.Submit(1e5, func() { submitA(n - 1) })
	}
	submitB = func(n int) {
		if n == 0 {
			bDone = k.Now()
			return
		}
		d.Submit(1e5, func() { submitB(n - 1) })
	}
	submitA(10)
	submitB(10)
	k.Run()
	// 20 requests of 100 ms total 2 s; both streams finish near the end.
	if aDone < sim.Time(1900*sim.Millisecond) || bDone < sim.Time(1900*sim.Millisecond) {
		t.Errorf("streams finished at %v and %v; expected both near 2s", aDone, bDone)
	}
}

func TestReadTimeMatchesSubmit(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDisk(k, ReferenceMachine("n").Disk)
	var doneAt sim.Time
	d.Submit(4096, func() { doneAt = k.Now() })
	k.Run()
	if got := sim.Time(0).Add(d.ReadTime(4096)); got != doneAt {
		t.Errorf("ReadTime = %v, actual completion %v", got, doneAt)
	}
}

// TestDiskSteadyStateZeroAllocs: once warm, submitting and completing
// requests, queued ones included, allocates nothing — the completion is
// bound once per disk and the FIFO reuses its array.
func TestDiskSteadyStateZeroAllocs(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDisk(k, DiskSpec{SeekTime: sim.Millisecond, BandwidthBps: 1e6})
	done := func() {}
	allocs := testing.AllocsPerRun(200, func() {
		d.Submit(4096, done)
		d.SubmitSequential(4096, done)
		d.Submit(4096, done)
		k.Run()
	})
	if allocs != 0 {
		t.Fatalf("submit+complete allocates %v per run, want 0", allocs)
	}
	if d.QueueLen() != 0 {
		t.Fatalf("QueueLen = %d after drain", d.QueueLen())
	}
}

// TestDiskQueueFIFOUnderSustainedLoad keeps the queue from ever draining
// while completions resubmit, so the popped prefix must be reclaimed
// without reordering anything.
func TestDiskQueueFIFOUnderSustainedLoad(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDisk(k, DiskSpec{SeekTime: sim.Millisecond, BandwidthBps: 1e6})
	var order []int
	next := 0
	var submit func()
	submit = func() {
		i := next
		next++
		d.Submit(1000, func() {
			order = append(order, i)
			if next < 500 {
				submit()
			}
		})
	}
	for i := 0; i < 5; i++ {
		submit()
	}
	k.Run()
	if len(order) != 500 {
		t.Fatalf("%d completions, want 500", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("completion %d was request %d, want FIFO", i, v)
		}
	}
	if cap(d.queue) > 16 {
		t.Errorf("queue array grew to %d for at most 5 waiting requests", cap(d.queue))
	}
}
