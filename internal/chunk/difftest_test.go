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

// mapCache is the chunk cache as a plain key→size map: the index the
// paged bitmap replaced.
type mapCache struct {
	used  int64
	sizes map[Key]int64
	stats Stats
}

func (c *mapCache) Contains(k Key) bool {
	_, ok := c.sizes[k]
	return ok
}

func (c *mapCache) Lookup(k Key, size int64) bool {
	if c.Contains(k) {
		c.stats.Hits++
		c.stats.BytesSaved += uint64(size)
		return true
	}
	c.stats.Misses++
	return false
}

func (c *mapCache) Add(k Key, size int64) {
	if c.Contains(k) {
		return
	}
	c.sizes[k] = size
	c.used += size
}

// TestCacheMatchesMapReference drives the paged bitmap and a map
// reference through the same random Add/Lookup sequence over a key
// universe mixing dense minted keys, word and page edges (0, 63, 64,
// 2048, 4095, 4096, 4097, ...), the top of the key space and random
// 64-bit keys,
// and requires equal answers, Len, UsedBytes, Stats and membership of
// every key after every call.
func TestCacheMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := NewPlane(Config{})
		got := p.CacheFor("n1")
		want := &mapCache{sizes: make(map[Key]int64)}
		universe := []Key{0, 63, 64, 2047, 2048, 4095, 4096, 4097, 4096 + 2048, 8191,
			^Key(0), ^Key(0) - 64, ^Key(0) - 4096}
		for i := 0; i < 40; i++ {
			universe = append(universe, p.Mint())
		}
		for i := 0; i < 20; i++ {
			universe = append(universe, Key(rng.Uint64()))
		}
		for op := 0; op < 5000; op++ {
			k := universe[rng.Intn(len(universe))]
			size := int64(1 + rng.Intn(int(DefaultChunkBytes)))
			if rng.Intn(2) == 0 {
				got.Add(k, size)
				want.Add(k, size)
			} else if g, w := got.Lookup(k, size), want.Lookup(k, size); g != w {
				t.Fatalf("seed %d op %d: Lookup(%#x) = %v, want %v", seed, op, k, g, w)
			}
			if got.Len() != len(want.sizes) || got.UsedBytes() != want.used || got.Stats() != want.stats {
				t.Fatalf("seed %d op %d: len %d used %d stats %+v, want len %d used %d stats %+v",
					seed, op, got.Len(), got.UsedBytes(), got.Stats(),
					len(want.sizes), want.used, want.stats)
			}
			for _, u := range universe {
				if got.Contains(u) != want.Contains(u) {
					t.Fatalf("seed %d op %d: Contains(%#x) = %v, want %v", seed, op, u, got.Contains(u), want.Contains(u))
				}
			}
		}
		if got.Len() != len(want.sizes) || got.Len() == 0 {
			t.Fatalf("seed %d: %d keys cached at the end, reference %d", seed, got.Len(), len(want.sizes))
		}
	}
}
