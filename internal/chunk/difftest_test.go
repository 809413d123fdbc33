package chunk

import (
	"math/rand"
	"testing"

	"vmgrid/internal/lru"
)

// refCache is the chunk cache as it stood when every cache kept an
// lru.Cache recency list. The differential test pins the set-only
// cache to it call for call.
type refCache struct {
	used  int64
	lru   *lru.Cache[Key]
	sizes map[Key]int64
	stats Stats
}

func newRefCache() *refCache {
	return &refCache{lru: lru.New[Key](1024), sizes: make(map[Key]int64)}
}

func (c *refCache) Contains(k Key) bool {
	_, ok := c.sizes[k]
	return ok
}

func (c *refCache) Lookup(k Key, size int64) bool {
	if c.lru.Touch(k) {
		c.stats.Hits++
		c.stats.BytesSaved += uint64(size)
		return true
	}
	c.stats.Misses++
	return false
}

func (c *refCache) Add(k Key, size int64) {
	if _, ok := c.sizes[k]; ok {
		c.lru.Touch(k)
		return
	}
	c.lru.Insert(k)
	c.sizes[k] = size
	c.used += size
}

// TestCacheMatchesLRUReference drives the plane's cache and the
// reference through the same random Add/Lookup/Contains sequence, over
// several seeds, and requires equal answers, Stats, Len, UsedBytes and
// membership of every key after every call.
func TestCacheMatchesLRUReference(t *testing.T) {
	const chunkBytes = 100
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := NewPlane(Config{ChunkBytes: chunkBytes})
		got := p.CacheFor("n1")
		want := newRefCache()
		universe := make([]Key, 64)
		for i := range universe {
			universe[i] = p.Mint()
		}
		for op := 0; op < 5000; op++ {
			k := universe[rng.Intn(len(universe))]
			size := int64(1 + rng.Intn(chunkBytes))
			switch rng.Intn(3) {
			case 0:
				got.Add(k, size)
				want.Add(k, size)
			case 1:
				if g, w := got.Lookup(k, size), want.Lookup(k, size); g != w {
					t.Fatalf("seed %d op %d: Lookup = %v, want %v", seed, op, g, w)
				}
			case 2:
				if g, w := got.Contains(k), want.Contains(k); g != w {
					t.Fatalf("seed %d op %d: Contains = %v, want %v", seed, op, g, w)
				}
			}
			if got.Stats() != want.stats || got.Len() != want.lru.Len() || got.UsedBytes() != want.used {
				t.Fatalf("seed %d op %d: stats %+v len %d used %d, want %+v len %d used %d",
					seed, op, got.Stats(), got.Len(), got.UsedBytes(),
					want.stats, want.lru.Len(), want.used)
			}
			for _, u := range universe {
				if got.Contains(u) != want.Contains(u) {
					t.Fatalf("seed %d op %d: membership of %x differs", seed, op, u)
				}
			}
		}
	}
}

// TestCacheWarmAddZeroAllocs: re-adding a key the node already holds —
// every chunk a staged file adopts from a warm cache — allocates
// nothing.
func TestCacheWarmAddZeroAllocs(t *testing.T) {
	p := NewPlane(Config{})
	c := p.CacheFor("n1")
	keys := make([]Key, 256)
	for i := range keys {
		keys[i] = p.Mint()
		c.Add(keys[i], DefaultChunkBytes)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, k := range keys {
			c.Add(k, DefaultChunkBytes)
		}
	})
	if allocs != 0 {
		t.Errorf("warm re-add allocates %v times per pass, want 0", allocs)
	}
}

// BenchmarkChunkCacheAdd is the warm re-add on an uncapped cache: the
// per-chunk cache update of staging and checkpoint adoption when the
// node already holds the content.
func BenchmarkChunkCacheAdd(b *testing.B) {
	p := NewPlane(Config{})
	c := p.CacheFor("n1")
	keys := make([]Key, 1024)
	for i := range keys {
		keys[i] = p.Mint()
		c.Add(keys[i], DefaultChunkBytes)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(keys[i&(len(keys)-1)], DefaultChunkBytes)
	}
}
