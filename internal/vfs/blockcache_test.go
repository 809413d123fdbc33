package vfs

import (
	"fmt"
	"math/rand"
	"testing"

	"vmgrid/internal/lru"
	"vmgrid/internal/sim"
)

// refBlockCache is the client's former block cache, an lru.Cache keyed
// by (file name, block), with the read and write walks that fed it. The
// differential test pins the id-indexed cache to it.
type refBlockCache struct {
	cfg          Config
	capBlocks    int
	blocks       *lru.Cache[refBlockKey]
	hits, misses uint64
}

type refBlockKey struct {
	file  string
	block int64
}

func newRefBlockCache(cfg Config) *refBlockCache {
	capBlocks := int(cfg.CacheBytes / cfg.Rsize)
	return &refBlockCache{cfg: cfg, capBlocks: capBlocks, blocks: lru.New[refBlockKey](capBlocks)}
}

func (r *refBlockCache) insert(key refBlockKey) {
	if r.cfg.CacheBytes < r.cfg.Rsize {
		return
	}
	if r.blocks.Touch(key) {
		return
	}
	for r.blocks.Len() >= r.capBlocks && r.blocks.Len() > 0 {
		r.blocks.EvictOldest()
	}
	r.blocks.Insert(key)
}

func (r *refBlockCache) read(file string, off, size int64) {
	if size <= 0 {
		size = 1
	}
	rsize := r.cfg.Rsize
	var missing []int64
	for b := off / rsize; b <= (off+size-1)/rsize; b++ {
		if r.blocks.Touch(refBlockKey{file, b}) {
			r.hits++
		} else {
			r.misses++
			missing = append(missing, b)
		}
	}
	window := max(r.cfg.Prefetch/rsize, 1)
	for i := 0; i < len(missing); {
		start := (missing[i] / window) * window
		for b := start; b < start+window; b++ {
			r.insert(refBlockKey{file, b})
		}
		for i < len(missing) && missing[i] < start+window {
			i++
		}
	}
}

func (r *refBlockCache) write(file string, off, size int64) {
	if size <= 0 {
		size = 1
	}
	for b := off / r.cfg.Rsize; b <= (off+size-1)/r.cfg.Rsize; b++ {
		r.insert(refBlockKey{file, b})
	}
}

// TestBlockCacheMatchesLRUReference drives the client and the reference
// through the same random reads and writes — several files, two handles
// on one name, writes past the end, prefetch spans past the end — and
// requires equal hits, misses and resident block counts after every
// call. lru's TestBlocksMatchCache pins the recency order itself.
func TestBlockCacheMatchesLRUReference(t *testing.T) {
	const rsize = 4 << 10
	for _, cacheBlocks := range []int64{0, 1, 3, 16} {
		for _, window := range []int64{1, 4} {
			for seed := int64(1); seed <= 4; seed++ {
				cfg := Config{Rsize: rsize, Prefetch: window * rsize, CacheBytes: cacheBlocks * rsize}
				name := fmt.Sprintf("cache%d/window%d/seed%d", cacheBlocks, window, seed)
				t.Run(name, func(t *testing.T) { blockCacheDiff(t, cfg, seed) })
			}
		}
	}
}

func blockCacheDiff(t *testing.T, cfg Config, seed int64) {
	k := sim.NewKernel(1)
	c, err := NewClient(k, &benchTransport{k: k, latency: sim.Millisecond}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefBlockCache(cfg)
	files := []*RemoteFile{
		c.Open("a", 10*cfg.Rsize),
		c.Open("b", 0),
		c.Open("c", 3*cfg.Rsize+1),
		c.Open("a", 10*cfg.Rsize), // a second handle shares "a"'s blocks
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 3000; i++ {
		f := files[rng.Intn(len(files))]
		off := rng.Int63n(24 * cfg.Rsize)
		size := rng.Int63n(5 * cfg.Rsize)
		op := "read"
		if rng.Intn(3) == 0 {
			op = "write"
			f.Write(off, size, nil)
			ref.write(f.file, off, size)
		} else {
			f.Read(off, size, nil)
			ref.read(f.file, off, size)
		}
		k.Run()
		if c.Hits() != ref.hits || c.Misses() != ref.misses {
			t.Fatalf("call %d (%s %s %d+%d): hits/misses %d/%d, want %d/%d",
				i, op, f.file, off, size, c.Hits(), c.Misses(), ref.hits, ref.misses)
		}
		if c.blocks.Len() != ref.blocks.Len() {
			t.Fatalf("call %d (%s %s %d+%d): %d blocks resident, want %d",
				i, op, f.file, off, size, c.blocks.Len(), ref.blocks.Len())
		}
	}
}
