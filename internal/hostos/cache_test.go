package hostos

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"vmgrid/internal/hw"
	"vmgrid/internal/lru"
	"vmgrid/internal/sim"
)

// refPageCache is the buffer cache's former page index, an lru.Cache
// keyed by (file, page), kept as the reference the per-file page tables
// must match exactly: same hits, misses, resident bytes and device
// requests for every call.
type refPageCache struct {
	disk     *hw.Disk
	capacity int64
	used     int64
	pages    *lru.Cache[refPageKey]

	hits, misses uint64
}

type refPageKey struct {
	file string
	page int64
}

func newRefPageCache(disk *hw.Disk, capacity int64) *refPageCache {
	return &refPageCache{disk: disk, capacity: capacity, pages: lru.New[refPageKey](int(capacity / CachePageSize))}
}

func (c *refPageCache) insert(key refPageKey) {
	if c.capacity < CachePageSize {
		return
	}
	if c.pages.Touch(key) {
		return
	}
	for c.used+CachePageSize > c.capacity && c.pages.Len() > 0 {
		c.pages.EvictOldest()
		c.used -= CachePageSize
	}
	c.pages.Insert(key)
	c.used += CachePageSize
}

func (c *refPageCache) read(k *sim.Kernel, file string, off, size int64, sequential bool) {
	first, last := pageRange(off, size)
	var missing int64
	for pg := first; pg <= last; pg++ {
		key := refPageKey{file: file, page: pg}
		if c.pages.Touch(key) {
			c.hits++
			continue
		}
		c.misses++
		missing += CachePageSize
		c.insert(key)
	}
	switch {
	case missing == 0:
		k.After(hitLatency, nil)
	case sequential:
		c.disk.SubmitSequential(missing, nil)
	default:
		c.disk.Submit(missing, nil)
	}
}

func (c *refPageCache) write(k *sim.Kernel, file string, off, size int64, sequential bool) {
	first, last := pageRange(off, size)
	for pg := first; pg <= last; pg++ {
		c.insert(refPageKey{file: file, page: pg})
	}
	switch {
	case size <= 0:
		k.After(hitLatency, nil)
	case sequential:
		c.disk.SubmitSequential(size, nil)
	default:
		c.disk.Submit(size, nil)
	}
}

func (c *refPageCache) invalidate(file string) {
	c.pages.Filter(func(key refPageKey) bool {
		if key.file != file {
			return false
		}
		c.used -= CachePageSize
		return true
	})
}

// diskObs is what one call did at the device, observed from outside:
// requests issued, bytes moved, and how long the call took to complete
// (which separates a sequential request from a seeking one of equal
// size, and a cache hit from both).
type diskObs struct {
	requests uint64
	bytes    uint64
	elapsed  sim.Duration
}

// observe runs op to completion on k and reports its device footprint.
func observe(k *sim.Kernel, d *hw.Disk, op func()) diskObs {
	req, bytes, start := d.Requests(), d.BytesTransferred(), k.Now()
	op()
	k.Run()
	return diskObs{d.Requests() - req, d.BytesTransferred() - bytes, k.Now().Sub(start)}
}

// TestBufferCacheMatchesPageLRU drives the page-table cache and the
// reference page LRU through identical seeded random call sequences and
// requires identical counters, residency and device traffic after every
// call.
func TestBufferCacheMatchesPageLRU(t *testing.T) {
	const ps = CachePageSize
	capacities := []int64{
		0,            // never caches
		ps / 2,       // smaller than one page
		ps,           // exactly one page
		3 * ps,       // smaller than the larger reads: a call evicts its own pages
		5*ps + ps/3,  // not a multiple of the page size
		24 * ps,      // holds a good share of the working set
		200*ps + 100, // holds everything
	}
	files := []string{"n1:img", "n1:copy", "n2:img", "swap"}
	spec := hw.ReferenceMachine("n").Disk
	for _, capacity := range capacities {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("cap=%d/seed=%d", capacity, seed), func(t *testing.T) {
				kGot, kWant := sim.NewKernel(1), sim.NewKernel(1)
				dGot, dWant := hw.NewDisk(kGot, spec), hw.NewDisk(kWant, spec)
				got, want := NewBufferCache(dGot, capacity), newRefPageCache(dWant, capacity)
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 3000; i++ {
					file := files[rng.Intn(len(files))]
					off := rng.Int63n(48*ps) + rng.Int63n(2)*rng.Int63n(ps)
					size := rng.Int63n(6*ps + 1)
					if rng.Intn(8) == 0 {
						size = 0
					}
					var op string
					var g, w diskObs
					switch rng.Intn(9) {
					case 0, 1:
						op = "Read"
						g = observe(kGot, dGot, func() { got.Read(kGot, got.Intern(file), off, size, nil) })
						w = observe(kWant, dWant, func() { want.read(kWant, file, off, size, false) })
					case 2, 3:
						op = "ReadSequential"
						g = observe(kGot, dGot, func() { got.ReadSequential(kGot, got.Intern(file), off, size, nil) })
						w = observe(kWant, dWant, func() { want.read(kWant, file, off, size, true) })
					case 4, 5:
						op = "Write"
						g = observe(kGot, dGot, func() { got.Write(kGot, got.Intern(file), off, size, nil) })
						w = observe(kWant, dWant, func() { want.write(kWant, file, off, size, false) })
					case 6, 7:
						op = "WriteSequential"
						g = observe(kGot, dGot, func() { got.WriteSequential(kGot, got.Intern(file), off, size, nil) })
						w = observe(kWant, dWant, func() { want.write(kWant, file, off, size, true) })
					default:
						op = "Invalidate"
						got.Invalidate(file)
						want.invalidate(file)
					}
					if g != w {
						t.Fatalf("op %d %s(%s, %d, %d): device %+v, want %+v", i, op, file, off, size, g, w)
					}
					if got.Hits() != want.hits || got.Misses() != want.misses || got.CachedBytes() != want.used {
						t.Fatalf("op %d %s(%s, %d, %d): hits/misses/cached %d/%d/%d, want %d/%d/%d",
							i, op, file, off, size, got.Hits(), got.Misses(), got.CachedBytes(),
							want.hits, want.misses, want.used)
					}
				}
			})
		}
	}
}

// TestBufferCacheStreamsMatchPageLRU is TestBufferCacheMatchesPageLRU
// for the streams the simulator makes: Store.Copy's alternating 2-page
// source reads and destination writes, 16-page stage writes, 1-page
// random reads, and invalidations that end a stream. After every call
// it requires the reference's hits, misses and device traffic, and its
// resident pages in its recency order.
func TestBufferCacheStreamsMatchPageLRU(t *testing.T) {
	const ps = CachePageSize
	files := []string{"n1:img", "n1:copy", "n1:stage", "n1:rand"}
	spec := hw.ReferenceMachine("n").Disk
	for _, capacity := range []int64{0, 3 * ps, 17 * ps, 64*ps + ps/2, 300 * ps} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("cap=%d/seed=%d", capacity/ps, seed), func(t *testing.T) {
				kGot, kWant := sim.NewKernel(1), sim.NewKernel(1)
				dGot, dWant := hw.NewDisk(kGot, spec), hw.NewDisk(kWant, spec)
				got, want := NewBufferCache(dGot, capacity), newRefPageCache(dWant, capacity)
				copyAt, stageAt := int64(0), int64(0)
				copyRead := false // the chunk at copyAt is read, to be written
				rng := rand.New(rand.NewSource(seed))
				var g, w []refPageKey
				for i := 0; i < 2000; i++ {
					var op string
					var gObs, wObs diskObs
					call := func(name, file string, off, size int64, read, seq bool) {
						op = fmt.Sprintf("%s(%s, %d, %d)", name, file, off/ps, size/ps)
						id := got.Intern(file)
						if read {
							gObs = observe(kGot, dGot, func() { got.Read(kGot, id, off, size, nil) })
							wObs = observe(kWant, dWant, func() { want.read(kWant, file, off, size, false) })
						} else {
							gObs = observe(kGot, dGot, func() { got.WriteSequential(kGot, id, off, size, nil) })
							wObs = observe(kWant, dWant, func() { want.write(kWant, file, off, size, true) })
						}
					}
					switch r := rng.Intn(20); {
					case r < 12: // one Store.Copy chunk: read the source, write the copy
						if !copyRead {
							call("Read", files[0], copyAt, 2*ps, true, false)
						} else {
							call("WriteSequential", files[1], copyAt, 2*ps, false, true)
							copyAt += 2 * ps
						}
						copyRead = !copyRead
					case r < 15:
						call("WriteSequential", files[2], stageAt, 16*ps, false, true)
						stageAt += 16 * ps
					case r < 19:
						f := files[rng.Intn(len(files))]
						call("Read", f, rng.Int63n(400)*ps, ps, true, false)
					default:
						f := files[rng.Intn(len(files))]
						op = "Invalidate(" + f + ")"
						got.Invalidate(f)
						want.invalidate(f)
						switch f {
						case files[0], files[1]:
							copyAt, copyRead = 0, false
						case files[2]:
							stageAt = 0
						}
					}
					if gObs != wObs {
						t.Fatalf("op %d %s: device %+v, want %+v", i, op, gObs, wObs)
					}
					if got.Hits() != want.hits || got.Misses() != want.misses {
						t.Fatalf("op %d %s: hits/misses %d/%d, want %d/%d", i, op, got.Hits(), got.Misses(), want.hits, want.misses)
					}
					names := map[int32]string{}
					for _, f := range files {
						names[got.Intern(f)] = f
					}
					g, w = g[:0], w[:0]
					got.pages.Runs(func(id int32, first, last int64) {
						for pg := first; pg <= last; pg++ {
							g = append(g, refPageKey{names[id], pg})
						}
					})
					want.pages.Filter(func(k refPageKey) bool {
						w = append(w, k)
						return false
					})
					if !slices.Equal(g, w) {
						t.Fatalf("op %d %s: %d resident pages %v, want %d %v", i, op, len(g), g, len(w), w)
					}
				}
			})
		}
	}
}

// TestBufferCacheRecreatedFile checks that a file deleted and created
// again under the same name starts cold, and that the id it released is
// reused without leaking the old file's pages into another file. The
// id bookkeeping itself is pinned in internal/lru
// (TestBlocksReleaseReusesIDs).
func TestBufferCacheRecreatedFile(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewBufferCache(hw.NewDisk(k, hw.ReferenceMachine("n").Disk), 16*CachePageSize)
	c.Write(k, c.Intern("a"), 0, 4*CachePageSize, nil)
	c.Write(k, c.Intern("b"), 0, 2*CachePageSize, nil)
	k.Run()
	c.Invalidate("a")
	if c.CachedBytes() != 2*CachePageSize {
		t.Fatalf("cached %d after invalidate, want 2 pages", c.CachedBytes())
	}
	c.Read(k, c.Intern("c"), 0, 4*CachePageSize, nil) // takes a's released id
	c.Read(k, c.Intern("a"), 0, 4*CachePageSize, nil) // recreated: cold again
	k.Run()
	if c.Hits() != 0 || c.Misses() != 8 {
		t.Fatalf("hits/misses = %d/%d, want 0/8", c.Hits(), c.Misses())
	}
	for _, f := range []string{"a", "b", "c"} {
		c.Invalidate(f)
	}
	if c.CachedBytes() != 0 {
		t.Fatalf("cached %d bytes after invalidating all", c.CachedBytes())
	}
}

// TestBufferCacheSteadyStateZeroAllocs pins the point of the page
// tables: once warm, a hit, a miss that evicts, and a streaming write
// allocate nothing, disk request and completion included.
func TestBufferCacheSteadyStateZeroAllocs(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewBufferCache(hw.NewDisk(k, hw.ReferenceMachine("n").Disk), 8*CachePageSize)
	done := func() {}
	hot, cold, out := c.Intern("hot"), c.Intern("cold"), c.Intern("out")
	// Warm every page table this test touches to its full length.
	for pg := int64(0); pg < 32; pg++ {
		c.Write(k, cold, pg*CachePageSize, CachePageSize, done)
		c.Write(k, out, pg*CachePageSize, CachePageSize, done)
	}
	c.Write(k, hot, 0, CachePageSize, done)
	k.Run()

	hit := testing.AllocsPerRun(200, func() {
		c.Read(k, hot, 0, CachePageSize, done)
		k.Run()
	})
	var pg int64
	miss := testing.AllocsPerRun(200, func() {
		pg = (pg + 1) % 32
		c.Read(k, cold, pg*CachePageSize, CachePageSize, done)
		k.Run()
	})
	write := testing.AllocsPerRun(200, func() {
		pg = (pg + 1) % 32
		c.WriteSequential(k, out, pg*CachePageSize, 2*CachePageSize, done)
		k.Run()
	})
	if hit != 0 || miss != 0 || write != 0 {
		t.Fatalf("allocs per call: hit %v, evicting miss %v, sequential write %v; want 0", hit, miss, write)
	}
	if c.Hits() == 0 || c.Misses() == 0 {
		t.Fatal("workload did not exercise both hits and misses")
	}
}

// BenchmarkBufferCacheCopy is Store.Copy's access shape on a full cache:
// read a 2-page chunk of the source, then stream it to the destination.
func BenchmarkBufferCacheCopy(b *testing.B) {
	const chunk = 2 * CachePageSize
	k := sim.NewKernel(1)
	c := NewBufferCache(hw.NewDisk(k, hw.ReferenceMachine("n").Disk), 256*CachePageSize)
	const chunks = 512 // src+dst span 8x the cache
	src, dst := c.Intern("n:src"), c.Intern("n:dst")
	for i := int64(0); i < chunks; i++ {
		c.WriteSequential(k, src, i*chunk, chunk, nil)
	}
	k.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%chunks) * chunk
		c.Read(k, src, off, chunk, nil)
		c.WriteSequential(k, dst, off, chunk, nil)
		k.Run()
	}
}
