package gram

import (
	"errors"
	"testing"

	"vmgrid/internal/chunk"
	"vmgrid/internal/sim"
	"vmgrid/internal/storage"
)

// TestStageChunkedDedup stages the same content twice: the cold stage
// pays the wire for every chunk, and after the destination copy is
// deleted (content outlives the name in the chunk cache) the re-stage
// moves only manifest control traffic — the bytes saved are accounted
// and the manifests match the source exactly.
func TestStageChunkedDedup(t *testing.T) {
	g := newGrid(t)
	plane := chunk.NewPlane(chunk.Config{ChunkBytes: 1 << 20})
	src := storage.NewStore(g.clientH)
	src.SetChunkPlane(plane)
	dst := storage.NewStore(g.server)
	dst.SetChunkPlane(plane)
	const size = 64 << 20
	if err := src.Create("image", size); err != nil {
		t.Fatal(err)
	}

	stage := func(asName string) sim.Duration {
		t.Helper()
		start := g.k.Now()
		var end sim.Time = -1
		if err := Stage(g.net, "front", src, "image", "compute", dst, asName, func(err error) {
			if err != nil {
				t.Errorf("stage %s: %v", asName, err)
			}
			end = g.k.Now()
		}); err != nil {
			t.Fatal(err)
		}
		g.k.Run()
		if end < 0 {
			t.Fatalf("stage %s never finished", asName)
		}
		return end.Sub(start)
	}

	bytes0 := g.net.BytesSent()
	cold := stage("image")
	coldWire := g.net.BytesSent() - bytes0
	if sz, _ := dst.Size("image"); sz != size {
		t.Fatalf("staged size = %d", sz)
	}
	want := src.ChunkKeys("image")
	got := dst.ChunkKeys("image")
	if len(got) != len(want) {
		t.Fatalf("dst manifest = %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chunk %d: staged key differs from source — identity lost in transfer", i)
		}
	}
	// 64 MB over 100 Mbit is ≥ 5.1 s of wire no matter the pipelining.
	if cold.Seconds() < 5 {
		t.Errorf("cold stage took %.2fs, faster than the wire allows", cold.Seconds())
	}
	if coldWire < size {
		t.Errorf("cold stage moved %d wire bytes, want ≥ %d (every chunk misses)", coldWire, size)
	}

	// Drop the name; the chunk cache still holds the content.
	if err := dst.Delete("image"); err != nil {
		t.Fatal(err)
	}
	savedBefore := plane.Stats().BytesSaved
	bytes1 := g.net.BytesSent()
	warm := stage("image")
	warmWire := g.net.BytesSent() - bytes1
	if warmWire >= size/16 {
		t.Errorf("warm re-stage moved %d wire bytes, want control traffic only", warmWire)
	}
	if warm >= cold/4 {
		t.Errorf("warm re-stage took %.2fs vs cold %.2fs — dedup not engaged",
			warm.Seconds(), cold.Seconds())
	}
	st := plane.Stats()
	if st.BytesSaved-savedBefore != uint64(size) {
		t.Errorf("bytes saved = %d, want the full %d skipped", st.BytesSaved-savedBefore, size)
	}
	if sz, _ := dst.Size("image"); sz != size {
		t.Errorf("warm-staged size = %d", sz)
	}
}

// TestStageChunkedDelta: after the destination holds one generation, a
// source write dirtying a single chunk makes the next stage move just
// that chunk.
func TestStageChunkedDelta(t *testing.T) {
	g := newGrid(t)
	plane := chunk.NewPlane(chunk.Config{ChunkBytes: 1 << 20})
	src := storage.NewStore(g.clientH)
	src.SetChunkPlane(plane)
	dst := storage.NewStore(g.server)
	dst.SetChunkPlane(plane)
	const size = 32 << 20
	if err := src.Create("state", size); err != nil {
		t.Fatal(err)
	}
	run := func(asName string) {
		t.Helper()
		ok := false
		if err := Stage(g.net, "front", src, "state", "compute", dst, asName, func(err error) {
			if err != nil {
				t.Errorf("stage %s: %v", asName, err)
			}
			ok = true
		}); err != nil {
			t.Fatal(err)
		}
		g.k.Run()
		if !ok {
			t.Fatalf("stage %s never finished", asName)
		}
	}
	run("gen0")

	f, err := src.Open("state")
	if err != nil {
		t.Fatal(err)
	}
	f.Write(5<<20+100, 1000, nil) // dirty exactly chunk 5
	g.k.Run()

	bytes0 := g.net.BytesSent()
	run("gen1")
	wire := g.net.BytesSent() - bytes0
	// One 1 MiB chunk plus manifest/bitmap control messages.
	if max := int64(2 << 20); int64(wire) > max {
		t.Errorf("delta stage moved %d wire bytes, want ≤ %d (one dirty chunk)", wire, max)
	}
	got := dst.ChunkKeys("gen1")
	want := src.ChunkKeys("state")
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chunk %d of gen1 differs from source", i)
		}
	}
}

// stageAllocs reports the allocations of one cold chunked stage of a
// file of the given chunk count: the source rewrites the whole file
// first, so every chunk has a fresh key and misses at the destination.
func stageAllocs(t *testing.T, chunks int) float64 {
	t.Helper()
	const cb = 64 << 10
	g := newGrid(t)
	plane := chunk.NewPlane(chunk.Config{ChunkBytes: cb})
	src := storage.NewStore(g.clientH)
	src.SetChunkPlane(plane)
	dst := storage.NewStore(g.server)
	dst.SetChunkPlane(plane)
	size := int64(chunks) * cb
	if err := src.Create("image", size); err != nil {
		t.Fatal(err)
	}
	f, err := src.Open("image")
	if err != nil {
		t.Fatal(err)
	}
	stage := func() {
		f.Write(0, size, nil)
		g.k.Run()
		if dst.Has("copy") {
			if err := dst.Delete("copy"); err != nil {
				t.Fatal(err)
			}
		}
		missesBefore := plane.Stats().Misses
		if err := Stage(g.net, "front", src, "image", "compute", dst, "copy", nil); err != nil {
			t.Fatal(err)
		}
		g.k.Run()
		if got := plane.Stats().Misses - missesBefore; got != uint64(chunks) {
			t.Fatalf("stage missed %d chunks, want all %d", got, chunks)
		}
	}
	stage()
	return testing.AllocsPerRun(5, stage)
}

// TestStagePipelineAllocsPerChunk guards the bound-once stage window:
// quadrupling the missing chunks adds only the growth of the manifests
// and cache maps, not allocations per chunk moved.
func TestStagePipelineAllocsPerChunk(t *testing.T) {
	const small, large = 64, 256
	a, b := stageAllocs(t, small), stageAllocs(t, large)
	perChunk := (b - a) / (large - small)
	t.Logf("cold stage: %v allocs at %d chunks, %v at %d (%.3f per extra chunk)", a, small, b, large, perChunk)
	if perChunk > 0.1 {
		t.Errorf("a cold stage allocates %.3f times per missing chunk, want none beyond map and manifest growth", perChunk)
	}
}

// TestTransferCancel cancels a 64 MB stage a second in, on the
// whole-file path and on the chunked one: done hears ErrCancelled once,
// at most the chunks already under way still cross the wire, the
// destination file is gone, and a later stage of the same Transfer is
// refused.
func TestTransferCancel(t *testing.T) {
	for _, tc := range []struct {
		name    string
		chunked bool
	}{{"whole-file", false}, {"chunked", true}} {
		t.Run(tc.name, func(t *testing.T) {
			g := newGrid(t)
			src := storage.NewStore(g.clientH)
			dst := storage.NewStore(g.server)
			if tc.chunked {
				plane := chunk.NewPlane(chunk.Config{ChunkBytes: 1 << 20})
				src.SetChunkPlane(plane)
				dst.SetChunkPlane(plane)
			}
			if err := src.Create("image", 64<<20); err != nil {
				t.Fatal(err)
			}
			var xfer Transfer
			calls := 0
			var got error
			if err := xfer.Stage(g.net, "front", src, "image", "compute", dst, "copy", func(err error) {
				calls, got = calls+1, err
			}); err != nil {
				t.Fatal(err)
			}
			var sent uint64
			g.k.After(sim.Second, func() {
				xfer.Cancel()
				sent = g.net.BytesSent()
			})
			g.k.Run()
			if calls != 1 || !errors.Is(got, ErrCancelled) {
				t.Errorf("done called %d times, last with %v; want once with ErrCancelled", calls, got)
			}
			// The whole-file loop has one chunk in flight, the chunked
			// pipeline two.
			if after := g.net.BytesSent() - sent; after > 2<<20 {
				t.Errorf("%d bytes crossed after Cancel, want at most the chunks under way", after)
			}
			if dst.Has("copy") {
				t.Error("cancelled stage left its destination file")
			}
			if err := xfer.Stage(g.net, "front", src, "image", "compute", dst, "again", nil); !errors.Is(err, ErrCancelled) || dst.Has("again") {
				t.Errorf("stage of a cancelled Transfer = %v, want ErrCancelled and no file", err)
			}
		})
	}
}
