package vfs

import (
	"fmt"
	"testing"

	"vmgrid/internal/sim"
)

// orderTransport wraps a Transport and records the order in which RPCs
// are issued to it and settle back, so tests can assert the client's
// FIFO serialization of batched reads against write-back drains.
type orderTransport struct {
	inner Transport
	log   []string
}

func (t *orderTransport) note(ev string) { t.log = append(t.log, ev) }

func (t *orderTransport) Read(file string, off, size int64, done func(error)) {
	t.note(fmt.Sprintf("read-issue %d+%d", off, size))
	t.inner.Read(file, off, size, func(err error) {
		t.note(fmt.Sprintf("read-settle %d+%d", off, size))
		done(err)
	})
}

func (t *orderTransport) Write(file string, off, size int64, done func(error)) {
	t.note(fmt.Sprintf("write-issue %d+%d", off, size))
	t.inner.Write(file, off, size, func(err error) {
		t.note(fmt.Sprintf("write-settle %d+%d", off, size))
		done(err)
	})
}

// TestBatchedReadCoalescesMissingBlocks: a cold sequential read covering
// many blocks issues one RPC per prefetch-window-aligned span, not one
// per block.
func TestBatchedReadCoalescesMissingBlocks(t *testing.T) {
	w := newWorld(t, false)
	tr, _ := NewNetTransport(w.net, "client", "server", w.server)
	cfg := Config{Rsize: 16 << 10, Prefetch: 64 << 10, CacheBytes: 4 << 20}
	c, err := NewClient(w.k, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := c.Open("data", 1<<30)
	// 256 KB = 16 blocks = exactly 4 prefetch windows.
	reads := 0
	f.Read(0, 256<<10, func() { reads++ })
	w.k.Run()
	if reads != 1 {
		t.Fatalf("read completed %d times", reads)
	}
	if got := c.RemoteOps(); got != 4 {
		t.Errorf("RemoteOps = %d for a 16-block cold read, want 4 window spans", got)
	}
	if got := c.Misses(); got != 16 {
		t.Errorf("Misses = %d, want 16", got)
	}
	// Re-read: all blocks resident, no new RPC.
	f.Read(0, 256<<10, func() { reads++ })
	w.k.Run()
	if reads != 2 {
		t.Fatalf("cached read never completed")
	}
	if got := c.RemoteOps(); got != 4 {
		t.Errorf("RemoteOps = %d after cached re-read, want still 4", got)
	}
}

// TestBatchedReadFlushBeforeFetch: a batched read issued while a
// write-back drain is in flight must observe flush-before-fetch — the
// client's FIFO RPC queue settles the drain at the server before the
// read span goes out.
func TestBatchedReadFlushBeforeFetch(t *testing.T) {
	w := newWorld(t, true)
	net, _ := NewNetTransport(w.net, "client", "server", w.server)
	tr := &orderTransport{inner: net}
	cfg := WANConfig()
	c, err := NewClient(w.k, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := c.Open("data", 1<<30)

	// Buffer a write (acked locally, drain RPC enqueued) and immediately
	// read a range spanning the dirty blocks plus uncached ones.
	f.Write(0, 64<<10, nil)
	if c.DirtyBytes() != 64<<10 {
		t.Fatalf("DirtyBytes = %d after buffering", c.DirtyBytes())
	}
	readDone := false
	f.Read(0, 512<<10, func() { readDone = true })
	w.k.Run()
	if !readDone {
		t.Fatal("batched read never completed")
	}
	if c.DirtyBytes() != 0 {
		t.Errorf("DirtyBytes = %d after drain", c.DirtyBytes())
	}

	// The drain must fully settle before any read span is issued.
	var firstReadIssue, writeSettle = -1, -1
	for i, ev := range tr.log {
		switch {
		case firstReadIssue < 0 && len(ev) > 10 && ev[:10] == "read-issue":
			firstReadIssue = i
		case ev[:12] == "write-settle":
			writeSettle = i
		}
	}
	if writeSettle < 0 || firstReadIssue < 0 {
		t.Fatalf("missing RPCs in log: %v", tr.log)
	}
	if writeSettle > firstReadIssue {
		t.Errorf("read span issued before the write-back drain settled:\n%v", tr.log)
	}
}

// TestDirtyBytesExactUnderBatching: DirtyBytes tracks the byte-exact
// sum of buffered writes while span-batched reads interleave, and
// returns to zero after the drain.
func TestDirtyBytesExactUnderBatching(t *testing.T) {
	w := newWorld(t, true)
	tr, _ := NewNetTransport(w.net, "client", "server", w.server)
	cfg := WANConfig()
	cfg.MaxDirty = 64 << 20 // no throttle: every write buffers instantly
	c, err := NewClient(w.k, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := c.Open("data", 1<<30)

	sizes := []int64{4 << 10, 32<<10 + 1, 64 << 10, 100, 256 << 10}
	var want int64
	for i, size := range sizes {
		f.Write(int64(i)<<20, size, nil)
		want += size
		// Interleave reads so the drain queue holds mixed call types.
		f.Read(int64(i+8)<<20, 48<<10, nil)
		if got := c.DirtyBytes(); got != want {
			t.Fatalf("DirtyBytes = %d after %d writes, want %d", got, i+1, want)
		}
	}
	flushed := false
	c.Flush(func() { flushed = true })
	w.k.Run()
	if !flushed {
		t.Fatal("flush never completed")
	}
	if got := c.DirtyBytes(); got != 0 {
		t.Errorf("DirtyBytes = %d after full drain", got)
	}
}

// benchTransport serves every RPC after a fixed latency without
// recording anything, so benchmark loops measure only the client.
type benchTransport struct {
	k       *sim.Kernel
	latency sim.Duration
}

func (t *benchTransport) Read(file string, off, size int64, done func(error)) {
	t.k.After(t.latency, func() { done(nil) })
}

func (t *benchTransport) Write(file string, off, size int64, done func(error)) {
	t.k.After(t.latency, func() { done(nil) })
}

// TestCachedReadZeroAllocs: a fully cached read — the data-plane hot
// path — allocates nothing once the client's call/read freelists and
// the kernel's event freelist are warm.
func TestCachedReadZeroAllocs(t *testing.T) {
	k := sim.NewKernel(1)
	tr := &benchTransport{k: k, latency: sim.Millisecond}
	cfg := Config{Rsize: 16 << 10, Prefetch: 64 << 10, CacheBytes: 4 << 20}
	c, err := NewClient(k, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := c.Open("data", 1<<30)
	// Warm the cache and every freelist.
	f.Read(0, 256<<10, nil)
	k.Run()

	allocs := testing.AllocsPerRun(200, func() {
		f.Read(0, 256<<10, nil)
		k.Run()
	})
	if allocs != 0 {
		t.Errorf("cached read allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkVFSReadCached measures the fully cached read path (hit
// walk + ack event only).
func BenchmarkVFSReadCached(b *testing.B) {
	k := sim.NewKernel(1)
	tr := &benchTransport{k: k, latency: sim.Millisecond}
	c, err := NewClient(k, tr, Config{Rsize: 16 << 10, Prefetch: 64 << 10, CacheBytes: 4 << 20})
	if err != nil {
		b.Fatal(err)
	}
	f := c.Open("data", 1<<30)
	f.Read(0, 256<<10, nil)
	k.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Read(0, 256<<10, nil)
		k.Run()
	}
}

// BenchmarkVFSReadMiss measures the cold path: span batching, pooled
// RPC issue, and settle, with caching disabled so every read misses.
func BenchmarkVFSReadMiss(b *testing.B) {
	k := sim.NewKernel(1)
	tr := &benchTransport{k: k, latency: sim.Millisecond}
	c, err := NewClient(k, tr, Config{Rsize: 16 << 10, Prefetch: 64 << 10, CacheBytes: 0})
	if err != nil {
		b.Fatal(err)
	}
	f := c.Open("data", 1<<30)
	f.Read(0, 256<<10, nil)
	k.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Read(0, 256<<10, nil)
		k.Run()
	}
}

// BenchmarkVFSRoundTrip measures one RPC end to end over a real Server:
// the client's issue, the request hop, the server's CPU cost and storage
// op, the reply hop and the client's settle. read-miss runs with caching
// off, so every read is one fetch RPC; write-back drains one buffered
// write per op.
func BenchmarkVFSRoundTrip(b *testing.B) {
	for _, tc := range []struct {
		name            string
		loopback, write bool
	}{
		{"net/read-miss", false, false},
		{"net/write-back", false, true},
		{"loopback/read-miss", true, false},
		{"loopback/write-back", true, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			w := newWorld(b, false)
			var tr Transport = NewLoopbackTransport(w.k, w.server)
			if !tc.loopback {
				nt, err := NewNetTransport(w.net, "client", "server", w.server)
				if err != nil {
					b.Fatal(err)
				}
				tr = nt
			}
			c, err := NewClient(w.k, tr, Config{Rsize: 16 << 10, Prefetch: 64 << 10, WriteBack: tc.write})
			if err != nil {
				b.Fatal(err)
			}
			f := c.Open("data", 1<<30)
			op := func() { f.Read(0, 64<<10, nil) }
			if tc.write {
				op = func() { f.Write(0, 64<<10, nil) }
			}
			op()
			w.k.Run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
				w.k.Run()
			}
			if c.RemoteOps() != uint64(b.N)+1 {
				b.Fatalf("%d RPCs for %d ops, want one each", c.RemoteOps(), b.N+1)
			}
		})
	}
}
