package sim

import (
	"runtime"
	"testing"
)

// BenchmarkKernelDispatch measures raw event throughput of the
// simulation core — the budget every higher-level model spends from.
func BenchmarkKernelDispatch(b *testing.B) {
	k := NewKernel(1)
	b.ReportAllocs()
	var fire func()
	n := 0
	fire = func() {
		n++
		if n < b.N {
			k.After(1, fire)
		}
	}
	k.After(1, fire)
	b.ResetTimer()
	k.Run()
}

// BenchmarkKernelDispatchGC is BenchmarkKernelDispatch with a heap that
// keeps the collector busy, at GOMAXPROCS(1) as perfbench runs each
// pass: every event allocates 64 B and stores the pointer into a
// 4096-slot ring, so GC cycles start every few thousand events and the
// kernel's heap operations run with write barriers on until each mark
// phase ends. It allocates by design; ns/op is the record.
func BenchmarkKernelDispatchGC(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	k := NewKernel(1)
	ring := make([]*[64]byte, 4096)
	b.ReportAllocs()
	var fire func()
	n := 0
	fire = func() {
		ring[n%len(ring)] = new([64]byte)
		n++
		if n < b.N {
			k.After(1, fire)
		}
	}
	k.After(1, fire)
	b.ResetTimer()
	k.Run()
}

// BenchmarkKernelScheduleCancel measures churn: schedule + cancel pairs,
// the pattern WorkTracker rate changes produce. The cancel empties the
// heap again, so every pair reuses one recycled event.
func BenchmarkKernelScheduleCancel(b *testing.B) {
	k := NewKernel(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := k.At(Time(i+1), nil)
		k.Cancel(id)
	}
}

// BenchmarkKernelCancelReschedule measures the cancel-then-reschedule
// pattern against a pool of live events — what WorkTracker produces on a
// contended host. Each cancel is a heap removal among 64 live events,
// more than any simulation keeps pending, so this is the removal's worst
// case; the freelist makes the reschedule allocation-free.
func BenchmarkKernelCancelReschedule(b *testing.B) {
	k := NewKernel(1)
	const live = 64
	ids := make([]EventID, live)
	for i := range ids {
		ids[i] = k.At(Time((i+1)*1000), nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % live
		k.Cancel(ids[slot])
		ids[slot] = k.At(Time((slot+1)*1000), nil)
	}
}

// BenchmarkWorkTrackerRateChanges measures the fluid model under
// frequent reallocation (the hot path of a contended host).
func BenchmarkWorkTrackerRateChanges(b *testing.B) {
	k := NewKernel(1)
	w := NewWorkTracker(k, 1e12, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.SetRate(float64(i%7) + 1)
	}
}

// BenchmarkRNG measures the deterministic generator.
func BenchmarkRNG(b *testing.B) {
	r := NewRNG(1)
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}
