package lru

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

type refBlock struct {
	file  string
	block int64
}

// order appends c's cached blocks to out from least to most recently
// used.
func (c *Blocks) order(out []refBlock) []refBlock {
	names := make([]string, len(c.tables))
	for name, id := range c.files {
		names[id] = name
	}
	for n := c.tail; n != 0; n = c.node(n).prev {
		out = append(out, refBlock{names[c.node(n).file], int64(c.node(n).block)})
	}
	return out
}

// spreadBlock draws a block index: hot low blocks, several table pages,
// and sparse ranges at and past 1<<20, so directories grow up and down
// and freed pages come back to other ranges and files.
func spreadBlock(rng *rand.Rand) int64 {
	switch r := rng.Intn(10); {
	case r < 4:
		return rng.Int63n(64)
	case r < 7:
		return rng.Int63n(4 * tablePageSize)
	case r < 9:
		return 1<<20 + rng.Int63n(2*tablePageSize)
	default:
		return rng.Int63n(1 << 24)
	}
}

// TestBlocksMatchCache drives Blocks and a capped Cache of (file, block)
// keys through the same random touches, inserts and releases and
// requires the same answers and size after every call, and the same
// recency order after every release and every few calls. Capacities
// straddle a node-page boundary; large ones run long enough to fill and
// evict, with rarer releases. A release is followed by re-interning the
// name and inserting into it, so recycled table pages must come back
// zeroed.
func TestBlocksMatchCache(t *testing.T) {
	files := []string{"a", "b", "c", "d"}
	for _, capacity := range []int{0, 1, 3, 17, 1000, 1023, 1024, 1025, 3000} {
		ops, releaseOdds, checkEvery := 5000, 20, 1
		if capacity >= 1000 {
			ops, releaseOdds, checkEvery = 8*capacity, 2*capacity, 61
		}
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("cap=%d/seed=%d", capacity, seed), func(t *testing.T) {
				got := NewBlocks(capacity)
				want := New[refBlock](capacity)
				insert := func(k refBlock) {
					if capacity < 1 || want.Touch(k) {
						return
					}
					for want.Len() >= capacity {
						want.EvictOldest()
					}
					want.Insert(k)
				}
				var g, w []refBlock
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < ops; i++ {
					file := files[rng.Intn(len(files))]
					id := got.Intern(file)
					k := refBlock{file, spreadBlock(rng)}
					released := false
					switch op := rng.Intn(releaseOdds); {
					case op < releaseOdds*9/20:
						if g, w := got.Touch(id, k.block), want.Touch(k); g != w {
							t.Fatalf("op %d: Touch(%v) = %v, want %v", i, k, g, w)
						}
					case op < releaseOdds-1:
						got.Insert(id, k.block)
						insert(k)
					default:
						got.Release(file)
						want.Filter(func(r refBlock) bool { return r.file == file })
						released = true
					}
					if got.Len() != want.Len() {
						t.Fatalf("op %d: %d blocks, want %d", i, got.Len(), want.Len())
					}
					if !released && i%checkEvery != 0 && i != ops-1 {
						continue
					}
					g, w = got.order(g[:0]), w[:0]
					want.Filter(func(r refBlock) bool {
						w = append(w, r)
						return false
					})
					if !slices.Equal(g, w) {
						t.Fatalf("op %d: %d blocks %v, want %d %v", i, got.Len(), g, want.Len(), w)
					}
				}
			})
		}
	}
}

// allocBytes returns the bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestBlocksAllocatesOnlyTouchedPages: a large cache pays for the node
// and table pages its blocks touch, not for its capacity or for its
// highest block, and filling one allocates its nodes once instead of
// regrowing them by doubling.
func TestBlocksAllocatesOnlyTouchedPages(t *testing.T) {
	sparse := allocBytes(func() {
		c := NewBlocks(1 << 20)
		id := c.Intern("f")
		for i := int64(0); i < 10; i++ {
			c.Insert(id, 1<<24+i*37)
		}
	})
	if sparse >= 64<<10 {
		t.Errorf("10 blocks near block 1<<24 in a 1<<20-block cache allocated %d bytes, want < 64 KB", sparse)
	}

	const capacity = 10000
	fill := allocBytes(func() {
		c := NewBlocks(capacity)
		id := c.Intern("f")
		for b := int64(0); b < capacity; b++ {
			c.Insert(id, b)
		}
	})
	nodes := uint64((capacity+nodePageSize)/nodePageSize*nodePageSize) * uint64(unsafe.Sizeof(blockNode{}))
	tables := uint64((capacity+tablePageSize-1)/tablePageSize) * uint64(unsafe.Sizeof(tablePage{}))
	if limit := nodes + tables + 16<<10; fill > limit {
		t.Errorf("filling a %d-block cache allocated %d bytes, want <= %d (%d of node pages, %d of table pages, 16 KB of directories and slack)",
			capacity, fill, limit, nodes, tables)
	}
}

// BenchmarkBlocksColdFill fills a fresh cache to capacity, the way
// every simulated sample's host and vfs caches start; its B/op is what
// a sample pays for its block index.
func BenchmarkBlocksColdFill(b *testing.B) {
	const capacity = 8192
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewBlocks(capacity)
		id := c.Intern("f")
		for blk := int64(0); blk < capacity; blk++ {
			c.Insert(id, blk)
		}
	}
}

// TestBlocksReleaseReusesIDs: a released name frees its id, the next
// new name takes it, and a released-then-reinterned name starts empty,
// so files created and deleted forever keep the index bounded.
func TestBlocksReleaseReusesIDs(t *testing.T) {
	c := NewBlocks(16)
	a, b := c.Intern("a"), c.Intern("b")
	for blk := int64(0); blk < 4; blk++ {
		c.Insert(a, blk)
	}
	c.Insert(b, 0)
	c.Release("a")
	if c.Len() != 1 {
		t.Fatalf("Len = %d after releasing a, want 1", c.Len())
	}
	if id := c.Intern("c"); id != a {
		t.Errorf("c got id %d, want a's released id %d", id, a)
	}
	if c.Touch(a, 0) {
		t.Error("c inherited a's cached block")
	}
	c.Intern("a")
	if len(c.files) != 3 || len(c.tables) != 3 {
		t.Fatalf("%d interned names over %d ids, want 3 over 3", len(c.files), len(c.tables))
	}
	for _, f := range []string{"a", "b", "c"} {
		c.Release(f)
	}
	if c.Len() != 0 || len(c.files) != 0 {
		t.Fatalf("%d blocks over %d names after releasing all", c.Len(), len(c.files))
	}
}

// TestBlocksBlockRange: a node is 16 bytes because it stores its block
// in 32 bits, so Insert takes every index up to math.MaxUint32 and
// panics past it, or on a negative one, instead of truncating.
func TestBlocksBlockRange(t *testing.T) {
	if n := unsafe.Sizeof(blockNode{}); n != 16 {
		t.Errorf("blockNode is %d bytes, want 16", n)
	}
	c := NewBlocks(4)
	id := c.Intern("f")
	c.Insert(id, math.MaxUint32)
	if !c.Touch(id, math.MaxUint32) {
		t.Error("block math.MaxUint32 not cached after Insert")
	}
	for _, b := range []int64{math.MaxUint32 + 1, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Insert(%d) did not panic", b)
				}
			}()
			c.Insert(id, b)
		}()
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d after the rejected inserts, want 1", c.Len())
	}
}
