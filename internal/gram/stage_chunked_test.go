package gram

import (
	"cmp"
	"errors"
	"runtime"
	"slices"
	"testing"

	"vmgrid/internal/chunk"
	"vmgrid/internal/sim"
	"vmgrid/internal/storage"
)

// TestStageChunkedDedup stages a file to a destination whose chunk
// cache already holds some of its chunks: only the others cross the
// wire, the hits are accounted as bytes saved, and the staged manifest
// matches the source exactly. The cases walk the needed-chunk flags
// with no chunk held, with the first, the last and some between held,
// and with every chunk held — a re-stage after the
// destination copy was deleted (content outlives the name in the chunk
// cache), which is the manifest round trip alone and reads no chunk.
func TestStageChunkedDedup(t *testing.T) {
	const cb = 1 << 20
	for _, tc := range []struct {
		name   string
		chunks int
		held   []int // chunks the destination's cache holds
		all    bool  // hold every chunk: stage a copy, then delete it
	}{
		{name: "cold", chunks: 64},
		{name: "some-held", chunks: 130, held: []int{0, 63, 64, 127, 129}},
		{name: "all-hit", chunks: 64, all: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newGrid(t)
			plane := chunk.NewPlane(chunk.Config{ChunkBytes: cb})
			src := storage.NewStore(g.clientH)
			src.SetChunkPlane(plane)
			dst := storage.NewStore(g.server)
			dst.SetChunkPlane(plane)
			size := int64(tc.chunks) * cb
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
			keys := src.ChunkKeys("image")
			held := len(tc.held)
			if tc.all {
				stage("seed")
				if err := dst.Delete("seed"); err != nil {
					t.Fatal(err)
				}
				held = tc.chunks
			}
			for _, i := range tc.held {
				plane.CacheFor("compute").Add(keys[i], cb)
			}

			moved := tc.chunks - held
			before, bytes0 := plane.Stats(), g.net.BytesSent()
			reads0 := g.clientH.Cache().Hits() + g.clientH.Cache().Misses()
			took := stage("image")
			st := plane.Stats()
			if sz, _ := dst.Size("image"); sz != size {
				t.Errorf("staged size = %d, want %d", sz, size)
			}
			if got := dst.ChunkKeys("image"); !slices.Equal(got, keys) {
				t.Errorf("staged manifest differs from the source's: identity lost in transfer")
			}
			if got := st.Misses - before.Misses; got != uint64(moved) {
				t.Errorf("plane misses = %d, want %d", got, moved)
			}
			if got := st.BytesSaved - before.BytesSaved; got != uint64(held)*cb {
				t.Errorf("bytes saved = %d, want the %d held chunks' %d", got, held, held*cb)
			}
			manifestMsg := int64(tc.chunks)*8 + ControlMsgBytes
			replyMsg := int64(tc.chunks+7)/8 + ControlMsgBytes
			if got, want := g.net.BytesSent()-bytes0, uint64(manifestMsg+replyMsg+int64(moved)*cb); got != want {
				t.Errorf("wire bytes = %d, want %d: the round trip and %d chunks", got, want, moved)
			}
			if moved == tc.chunks {
				// Every chunk over 100 Mbit is ≥ 5.1 s of wire per 64 MB,
				// however the pipeline overlaps them.
				if floor := sim.Duration(float64(size) / (64 << 20) * 5 * float64(sim.Second)); took < floor {
					t.Errorf("cold stage took %v, faster than the wire allows (%v)", took, floor)
				}
			}
			if moved == 0 {
				if reads := g.clientH.Cache().Hits() + g.clientH.Cache().Misses() - reads0; reads != 0 {
					t.Errorf("all-hit stage read %d source pages, want none", reads)
				}
				there, err1 := g.net.Latency("front", "compute", manifestMsg)
				back, err2 := g.net.Latency("compute", "front", replyMsg)
				if err := cmp.Or(err1, err2); err != nil {
					t.Fatal(err)
				}
				if took != there+back {
					t.Errorf("all-hit stage took %v, want the manifest round trip's %v", took, there+back)
				}
			}
		})
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

// stageCost reports what one cold chunked stage of a file of the given
// count of 64 KiB chunks allocates, averaged over a few: heap objects
// and heap bytes. The source rewrites the whole file first, so every
// chunk has a fresh key and misses at the destination.
func stageCost(t *testing.T, chunks int) (allocs, bytes float64) {
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
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		stage()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestStagePipelineAllocsPerChunk guards what a cold stage allocates
// per chunk. The bound-once stage window makes no allocation per chunk
// moved. The bytes are the source manifest's snapshot and the
// destination manifest, 8 each, the needed-chunk flag, 1, and the
// chunk caches' membership bits: a manifest regrown key by key, or a
// list of the missing chunks, exceeds the bound.
func TestStagePipelineAllocsPerChunk(t *testing.T) {
	const small, large = 1024, 8192
	a, aBytes := stageCost(t, small)
	b, bBytes := stageCost(t, large)
	perChunk := (b - a) / (large - small)
	bytesPerChunk := (bBytes - aBytes) / (large - small)
	t.Logf("cold stage: %v allocs, %.0f B at %d chunks; %v allocs, %.0f B at %d (%.3f allocs, %.2f B per extra chunk)",
		a, aBytes, small, b, bBytes, large, perChunk, bytesPerChunk)
	if perChunk > 0.1 {
		t.Errorf("a cold stage allocates %.3f times per missing chunk, want none beyond map and manifest growth", perChunk)
	}
	if bytesPerChunk > 18 {
		t.Errorf("a cold stage allocates %.2f bytes per chunk, want at most 18", bytesPerChunk)
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
