package storage

import (
	"testing"

	"vmgrid/internal/chunk"
	"vmgrid/internal/hostos"
	"vmgrid/internal/hw"
	"vmgrid/internal/sim"
)

// chunkStore builds a store on a named host with a chunk plane attached.
func chunkStore(t *testing.T, k *sim.Kernel, p *chunk.Plane, node string) *Store {
	t.Helper()
	h, err := hostos.New(k, hw.ReferenceMachine(node))
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(h)
	s.SetChunkPlane(p)
	return s
}

func TestCreateMintsManifest(t *testing.T) {
	k := sim.NewKernel(1)
	p := chunk.NewPlane(chunk.Config{ChunkBytes: 1 << 20})
	s := chunkStore(t, k, p, "n1")
	const size = int64(2<<20 + 512<<10) // 2.5 chunks
	if err := s.Create("f", size); err != nil {
		t.Fatal(err)
	}
	keys := s.ChunkKeys("f")
	if len(keys) != 3 {
		t.Fatalf("manifest = %d keys, want 3", len(keys))
	}
	cache := p.CacheFor("n1")
	seen := make(map[chunk.Key]bool)
	for i, key := range keys {
		if key == 0 {
			t.Errorf("chunk %d carries the zero key for fresh content", i)
		}
		if seen[key] {
			t.Errorf("chunk %d repeats a key within one file", i)
		}
		seen[key] = true
		if !cache.Contains(key) {
			t.Errorf("chunk %d not recorded in the node cache", i)
		}
	}
}

func TestSetChunkPlaneMintsExistingFilesDeterministically(t *testing.T) {
	mint := func() []chunk.Key {
		k := sim.NewKernel(1)
		h, err := hostos.New(k, hw.ReferenceMachine("n1"))
		if err != nil {
			t.Fatal(err)
		}
		s := NewStore(h)
		// Create before the plane attaches, in shuffled order relative to
		// the sorted names the attach walks.
		for _, name := range []string{"b", "a", "c"} {
			if err := s.Create(name, 1<<20); err != nil {
				t.Fatal(err)
			}
		}
		s.SetChunkPlane(chunk.NewPlane(chunk.Config{ChunkBytes: 1 << 20}))
		var out []chunk.Key
		for _, name := range []string{"a", "b", "c"} {
			out = append(out, s.ChunkKeys(name)...)
		}
		return out
	}
	first, second := mint(), mint()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("key %d differs across identical attaches: %x vs %x — "+
				"manifest minting depends on map order", i, first[i], second[i])
		}
	}
}

func TestCopyPropagatesManifest(t *testing.T) {
	k := sim.NewKernel(1)
	p := chunk.NewPlane(chunk.Config{ChunkBytes: 1 << 20})
	s := chunkStore(t, k, p, "n1")
	if err := s.Create("src", 3<<20); err != nil {
		t.Fatal(err)
	}
	done := false
	if err := s.Copy("src", "dst", func() { done = true }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !done {
		t.Fatal("copy never completed")
	}
	src, dst := s.ChunkKeys("src"), s.ChunkKeys("dst")
	if len(dst) != len(src) {
		t.Fatalf("dst manifest = %d keys, want %d", len(dst), len(src))
	}
	for i := range src {
		if src[i] != dst[i] {
			t.Errorf("chunk %d: copy minted a new key instead of propagating", i)
		}
	}
}

func TestGuestWriteReMintsTouchedChunks(t *testing.T) {
	k := sim.NewKernel(1)
	p := chunk.NewPlane(chunk.Config{ChunkBytes: 1 << 20})
	s := chunkStore(t, k, p, "n1")
	if err := s.Create("f", 3<<20); err != nil {
		t.Fatal(err)
	}
	before := s.ChunkKeys("f")
	f, err := s.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the middle chunk only.
	f.Write(1<<20+4096, 8192, nil)
	k.Run()
	after := s.ChunkKeys("f")
	if after[0] != before[0] || after[2] != before[2] {
		t.Error("untouched chunks lost their identity")
	}
	if after[1] == before[1] {
		t.Error("written chunk kept its key — stale content would dedup as current")
	}
	// A write spanning a chunk boundary re-mints both sides.
	f.Write(1<<20-100, 200, nil)
	k.Run()
	spanned := s.ChunkKeys("f")
	if spanned[0] == after[0] || spanned[1] == after[1] {
		t.Error("boundary-spanning write left a touched chunk's key intact")
	}
	if spanned[2] != after[2] {
		t.Error("boundary-spanning write touched a chunk outside its range")
	}
}

func TestWriteGrowthFillsHolesWithZeroKey(t *testing.T) {
	k := sim.NewKernel(1)
	p := chunk.NewPlane(chunk.Config{ChunkBytes: 1 << 20})
	s := chunkStore(t, k, p, "n1")
	if err := s.Create("f", 0); err != nil {
		t.Fatal(err)
	}
	f, err := s.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	// Write far past EOF: the written chunk gets a fresh key, the skipped
	// hole chunks all share the reserved zero key.
	f.Write(2<<20, 4096, nil)
	k.Run()
	keys := s.ChunkKeys("f")
	if len(keys) != 3 {
		t.Fatalf("manifest = %d keys, want 3", len(keys))
	}
	if keys[0] != 0 || keys[1] != 0 {
		t.Errorf("hole chunks = %x, %x, want the shared zero key", keys[0], keys[1])
	}
	if keys[2] == 0 {
		t.Error("written chunk carries the zero key")
	}
}

func TestWriteChunkAsAdoptsTransferredIdentity(t *testing.T) {
	k := sim.NewKernel(1)
	p := chunk.NewPlane(chunk.Config{ChunkBytes: 1 << 20})
	s := chunkStore(t, k, p, "n1")
	f, err := s.OpenOrCreate("f")
	if err != nil {
		t.Fatal(err)
	}
	want := p.Mint() // the "source side" identity riding the transfer
	done := false
	f.WriteChunkAs(0, want, 0, 1<<20, func() { done = true })
	k.Run()
	if !done {
		t.Fatal("chunk write never completed")
	}
	if keys := s.ChunkKeys("f"); len(keys) != 1 || keys[0] != want {
		t.Fatalf("manifest = %v, want the adopted key %x", keys, want)
	}
	if sz, _ := s.Size("f"); sz != 1<<20 {
		t.Errorf("size = %d after chunk write", sz)
	}
	if !p.CacheFor("n1").Contains(want) {
		t.Error("adopted key not in the node cache")
	}
}

// TestSupersededHandleWritesAreDropped: a handle opened before its file
// was deleted and created again (a staging retry re-creating its
// target while the failed attempt still has chunks in flight) writes
// nothing into the new file. Both write paths complete, and the new
// incarnation's size and manifest are untouched.
func TestSupersededHandleWritesAreDropped(t *testing.T) {
	k := sim.NewKernel(1)
	p := chunk.NewPlane(chunk.Config{ChunkBytes: 1 << 20})
	s := chunkStore(t, k, p, "n1")
	if err := s.Create("f", 1<<20); err != nil {
		t.Fatal(err)
	}
	old, err := s.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("f"); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("f", 1<<20); err != nil {
		t.Fatal(err)
	}
	keys := s.ChunkKeys("f")
	done := 0
	old.WriteChunkAs(0, p.Mint(), 0, 1<<20, func() { done++ })
	old.WriteChunkAs(2, p.Mint(), 2<<20, 1<<20, func() { done++ })
	old.Write(0, 4<<20, func() { done++ })
	k.Run()
	if done != 3 {
		t.Fatalf("%d of 3 writes through the superseded handle completed", done)
	}
	if sz, _ := s.Size("f"); sz != 1<<20 {
		t.Errorf("new file size = %d, want %d", sz, 1<<20)
	}
	if got := s.ChunkKeys("f"); len(got) != len(keys) || got[0] != keys[0] {
		t.Errorf("new file manifest = %v, want %v", got, keys)
	}
	// A handle on the new incarnation still writes.
	cur, err := s.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	cur.Write(0, 2<<20, nil)
	k.Run()
	if sz, _ := s.Size("f"); sz != 2<<20 {
		t.Errorf("size = %d after a write through the live handle, want %d", sz, 2<<20)
	}
}

func TestDeleteKeepsChunkCacheEntries(t *testing.T) {
	k := sim.NewKernel(1)
	p := chunk.NewPlane(chunk.Config{ChunkBytes: 1 << 20})
	s := chunkStore(t, k, p, "n1")
	if err := s.Create("f", 2<<20); err != nil {
		t.Fatal(err)
	}
	keys := s.ChunkKeys("f")
	if err := s.Delete("f"); err != nil {
		t.Fatal(err)
	}
	if s.ChunkKeys("f") != nil {
		t.Error("deleted file still has a manifest")
	}
	cache := p.CacheFor("n1")
	for i, key := range keys {
		if !cache.Contains(key) {
			t.Errorf("chunk %d evicted by delete — content must outlive the name", i)
		}
	}
}
