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
	c.Runs(func(id int32, first, last int64) {
		for b := first; b <= last; b++ {
			out = append(out, refBlock{names[id], b})
		}
	})
	return out
}

// checkPages fails unless every table page's live count is the number
// of cached blocks it covers and of slots naming a run that holds their
// block, and a page is held exactly while that is not zero, so an
// evicted or released range gives its pages back, zeroed.
// live is scratch space kept between calls.
func checkPages(t *testing.T, c *Blocks, live *[][]int32) {
	t.Helper()
	for len(*live) < len(c.tables) {
		*live = append(*live, nil)
	}
	for id, tb := range c.tables {
		(*live)[id] = append((*live)[id][:0], make([]int32, len(tb.pages))...)
	}
	for n := c.tail; n != 0; n = c.node(n).prev {
		nd := c.node(n)
		tb := &c.tables[nd.file]
		for b := int64(nd.first); b < nd.end(); {
			k := min(nd.end(), (b|tablePageMask)+1) - b
			(*live)[nd.file][b>>tablePageShift-tb.base] += int32(k)
			b += k
		}
	}
	for id, tb := range c.tables {
		pages := 0
		for _, r := range tb.pages {
			if r.slots != nil {
				pages++
			}
		}
		if pages != tb.held || pages == 0 && len(tb.pages) != 0 {
			t.Fatalf("file %d: %d of %d directory entries hold a page, %d counted", id, pages, len(tb.pages), tb.held)
		}
		for i, r := range tb.pages {
			if want := (*live)[id][i]; r.live != want || (r.slots != nil) != (want > 0) {
				t.Fatalf("file %d table page %d: live %d, held %v; %d blocks cached", id, tb.base+int64(i), r.live, r.slots != nil, want)
			}
			if r.slots == nil {
				continue
			}
			held := int32(0)
			for j, n := range r.slots {
				if n != 0 && c.holds(n, int32(id), (tb.base+int64(i))<<tablePageShift+int64(j)) {
					held++
				}
			}
			if held != r.live {
				t.Fatalf("file %d table page %d: %d slots name a run holding their block, for %d cached blocks", id, tb.base+int64(i), held, r.live)
			}
		}
	}
	for _, pg := range c.freePages {
		if *pg != (tablePage{}) {
			t.Fatal("a table page on the free list is not zeroed")
		}
	}
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

// TestBlocksMatchCache drives Blocks, one block per range call, and a
// capped Cache of (file, block) keys through the same random touches,
// inserts and releases and requires the same answers and size after
// every call, and the same recency order after every release and every
// few calls. Capacities straddle a node-page boundary; large ones run
// long enough to fill and evict, with rarer releases. A release is
// followed by re-interning the name and inserting into it, so recycled
// table pages must come back zeroed.
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
						if g, w := len(got.TouchRange(id, k.block, k.block, nil)) == 0, want.Touch(k); g != w {
							t.Fatalf("op %d: Touch(%v) = %v, want %v", i, k, g, w)
						}
					case op < releaseOdds-1:
						if g, w := got.InsertRange(id, k.block, k.block) == 1, want.Touch(k); g != w {
							t.Fatalf("op %d: InsertRange(%v) hit %v, want %v", i, k, g, w)
						}
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

// TestBlocksRangesMatchCache drives InsertRange, TouchRange and Release
// with random ranges against a capped Cache that replays each range one
// block at a time, and requires the same hits, the same missing blocks,
// the same size and the same full recency order after every call, and
// every table page's live count right (after every 16th call on the
// large caches, whose directories span thousands of pages).
// Ranges are short, long (some longer than the capacity, so an insert
// evicts its own earlier blocks), straddle table pages, or continue
// where the file's last range ended, so runs grow, split and join. A
// release is followed by re-interning the name.
func TestBlocksRangesMatchCache(t *testing.T) {
	files := []string{"a", "b", "c", "d"}
	for _, capacity := range []int{0, 1, 3, 17, 1023, 1024, 1025, 3000} {
		ops, releaseOdds := 3000, 40
		if capacity >= 1000 {
			ops, releaseOdds = 1500, 400
		}
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("cap=%d/seed=%d", capacity, seed), func(t *testing.T) {
				got := NewBlocks(capacity)
				want := New[refBlock](capacity)
				cursor := map[string]int64{}
				var g, w []refBlock
				var gotMissing, wantMissing []int64
				var live [][]int32
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < ops; i++ {
					file := files[rng.Intn(len(files))]
					id := got.Intern(file)
					var first, n int64
					switch r := rng.Intn(10); {
					case r < 3:
						first = cursor[file]
					case r < 5:
						first = int64(1+rng.Intn(4))*tablePageSize - rng.Int63n(16)
					default:
						first = spreadBlock(rng)
					}
					switch r := rng.Intn(10); {
					case r < 5:
						n = 1 + rng.Int63n(4)
					case r < 8:
						n = 1 + rng.Int63n(64)
					case r < 9:
						n = 1 + rng.Int63n(int64(2*capacity+8))
					default:
						n = 1 + rng.Int63n(3*tablePageSize)
					}
					last := first + n - 1
					cursor[file] = last + 1
					switch op := rng.Intn(releaseOdds); {
					case op < releaseOdds*2/5:
						gotMissing = got.TouchRange(id, first, last, gotMissing[:0])
						wantMissing = wantMissing[:0]
						for b := first; b <= last; b++ {
							if !want.Touch(refBlock{file, b}) {
								wantMissing = append(wantMissing, b)
							}
						}
						if !slices.Equal(gotMissing, wantMissing) {
							t.Fatalf("op %d: TouchRange(%s, %d, %d) missing %v, want %v", i, file, first, last, gotMissing, wantMissing)
						}
					case op < releaseOdds-1:
						hits, wantHits := got.InsertRange(id, first, last), 0
						for b := first; b <= last; b++ {
							k := refBlock{file, b}
							if capacity < 1 {
								break
							}
							if want.Touch(k) {
								wantHits++
								continue
							}
							for want.Len() >= capacity {
								want.EvictOldest()
							}
							want.Insert(k)
						}
						if hits != wantHits {
							t.Fatalf("op %d: InsertRange(%s, %d, %d) = %d hits, want %d", i, file, first, last, hits, wantHits)
						}
					default:
						got.Release(file)
						want.Filter(func(r refBlock) bool { return r.file == file })
						delete(cursor, file)
					}
					if got.Len() != want.Len() {
						t.Fatalf("op %d: %d blocks, want %d", i, got.Len(), want.Len())
					}
					g, w = got.order(g[:0]), w[:0]
					want.Filter(func(r refBlock) bool {
						w = append(w, r)
						return false
					})
					if !slices.Equal(g, w) {
						t.Fatalf("op %d: recency order of %d blocks differs from the reference's %d", i, len(g), len(w))
					}
					if capacity < 1000 || i%16 == 0 {
						checkPages(t, got, &live)
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
// highest block, and a sequential fill, one block per call, is one run:
// it allocates one node page, not a node per block.
func TestBlocksAllocatesOnlyTouchedPages(t *testing.T) {
	sparse := allocBytes(func() {
		c := NewBlocks(1 << 20)
		id := c.Intern("f")
		for i := int64(0); i < 10; i++ {
			b := 1<<24 + i*37
			c.InsertRange(id, b, b)
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
			c.InsertRange(id, b, b)
		}
	})
	nodes := uint64(nodePageSize) * uint64(unsafe.Sizeof(run{}))
	tables := uint64((capacity+tablePageSize-1)/tablePageSize) * uint64(unsafe.Sizeof(tablePage{}))
	if limit := nodes + tables + 16<<10; fill > limit {
		t.Errorf("filling a %d-block cache allocated %d bytes, want <= %d (%d of one node page, %d of table pages, 16 KB of directories and slack)",
			capacity, fill, limit, nodes, tables)
	}
}

// BenchmarkBlocksColdFill fills a fresh cache to capacity, one block
// per call, the way every simulated sample's host and vfs caches start;
// its B/op is what a sample pays for its block index.
func BenchmarkBlocksColdFill(b *testing.B) {
	const capacity = 8192
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewBlocks(capacity)
		id := c.Intern("f")
		for blk := int64(0); blk < capacity; blk++ {
			c.InsertRange(id, blk, blk)
		}
	}
}

// BenchmarkBlocksCopyShape is Store.Copy's access shape on a full
// 4,800-block cache (a reference host's buffer cache): an InsertRange of
// w source blocks, then one of the same w destination blocks, over files
// four times the cache's size, so every call misses and evicts. A
// one-block file cached first puts the evictions a block out of step
// with the runs, as Table 2's one-page guest reads do, so each call's
// evictions cut two runs. An op is one source and one destination call.
func BenchmarkBlocksCopyShape(b *testing.B) {
	for _, w := range []int64{2, 16} {
		b.Run(fmt.Sprint(w), func(b *testing.B) {
			const capacity = 4800
			c := NewBlocks(capacity)
			src, dst := c.Intern("src"), c.Intern("dst")
			c.InsertRange(c.Intern("boot"), 0, 0)
			chunks := 4 * capacity / w
			step := func(i int64) {
				off := i % chunks * w
				c.InsertRange(src, off, off+w-1)
				c.InsertRange(dst, off, off+w-1)
			}
			for i := int64(0); i < chunks; i++ {
				step(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(int64(i))
			}
		})
	}
}

// TestBlocksReleaseReusesIDs: a released name frees its id, the next
// new name takes it, and a released-then-reinterned name starts empty,
// so files created and deleted forever keep the index bounded.
func TestBlocksReleaseReusesIDs(t *testing.T) {
	c := NewBlocks(16)
	a, b := c.Intern("a"), c.Intern("b")
	c.InsertRange(a, 0, 3)
	c.InsertRange(b, 0, 0)
	c.Release("a")
	if c.Len() != 1 {
		t.Fatalf("Len = %d after releasing a, want 1", c.Len())
	}
	if id := c.Intern("c"); id != a {
		t.Errorf("c got id %d, want a's released id %d", id, a)
	}
	if len(c.TouchRange(a, 0, 0, nil)) == 0 {
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

// TestBlocksDirectoryEmptiesWithFile: a file cached near block 0 and
// near block 1<<24 spans a 16,385-entry directory; once eviction takes
// both blocks, the file keeps its id but not the directory, so a long-
// lived file pays nothing for blocks it no longer caches.
func TestBlocksDirectoryEmptiesWithFile(t *testing.T) {
	c := NewBlocks(2)
	id, other := c.Intern("f"), c.Intern("g")
	c.InsertRange(id, 0, 0)
	c.InsertRange(id, 1<<24, 1<<24)
	if n := len(c.tables[id].pages); n != 1<<14+1 {
		t.Fatalf("directory spans %d entries, want %d", n, 1<<14+1)
	}
	c.InsertRange(other, 0, 1)
	if tb := c.tables[id]; len(tb.pages) > 1 || cap(tb.pages) > dirKeep {
		t.Fatalf("after evicting both blocks the directory holds %d entries over a %d-entry array, want at most 1 over %d",
			len(tb.pages), cap(tb.pages), dirKeep)
	}
	if got := c.Intern("f"); got != id {
		t.Errorf("f's id moved from %d to %d", id, got)
	}
	c.InsertRange(id, 5, 5)
	if len(c.TouchRange(id, 5, 5, nil)) != 0 || len(c.TouchRange(id, 0, 0, nil)) != 1 {
		t.Error("a file cached again after its directory emptied finds the wrong blocks")
	}
}

// TestBlocksBlockRange: a run is 20 bytes because it stores its first
// block in 32 bits, so InsertRange takes every index up to
// math.MaxUint32 and panics on a range reaching past it, or starting
// below 0, instead of truncating.
func TestBlocksBlockRange(t *testing.T) {
	if n := unsafe.Sizeof(run{}); n != 20 {
		t.Errorf("run is %d bytes, want 20", n)
	}
	c := NewBlocks(4)
	id := c.Intern("f")
	c.InsertRange(id, math.MaxUint32, math.MaxUint32)
	if len(c.TouchRange(id, math.MaxUint32, math.MaxUint32, nil)) != 0 {
		t.Error("block math.MaxUint32 not cached after InsertRange")
	}
	for _, r := range [][2]int64{{math.MaxUint32 + 1, math.MaxUint32 + 1}, {-1, -1}, {math.MaxUint32 - 1, math.MaxUint32 + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("InsertRange(%d, %d) did not panic", r[0], r[1])
				}
			}()
			c.InsertRange(id, r[0], r[1])
		}()
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d after the rejected inserts, want 1", c.Len())
	}
}
