package hostos

import (
	"vmgrid/internal/hw"
	"vmgrid/internal/sim"
)

// CachePageSize is the buffer cache page granularity. 64 KB pages keep
// the simulated cache index small while staying finer than the transfer
// sizes that matter (boot block runs, image copy chunks).
const CachePageSize int64 = 64 * 1024

// hitLatency is the CPU cost of satisfying a read from the cache.
const hitLatency = 50 * sim.Microsecond

// BufferCache is the host OS disk buffer cache: an LRU of fixed-size
// pages keyed by (file, page index) in front of an hw.Disk. Reads that
// hit cost only a memory copy; misses are charged to the device. Writes
// are write-through: the caller's completion waits for the device, and
// the written pages become cached (this is what makes a VM image read
// shortly after it was copied fast, as in Table 2's persistent rows).
//
// The page index does no per-page hashing: a file name is interned to a
// small id once per call, each file has a page table (page index → node
// index) grown to its highest cached page, and the LRU list threads a
// pointer-free node slab with a freelist. A cache at steady state
// allocates nothing. Offsets must be non-negative.
type BufferCache struct {
	disk     *hw.Disk
	capacity int64 // bytes
	used     int64

	files     map[string]int32 // interned file name → id
	tables    [][]int32        // id → page → node index; 0 = not cached
	freeFiles []int32          // ids released by Invalidate

	// nodes[0] is the list sentinel: its next is the most recently used
	// page, its prev the least recently used.
	nodes []cacheNode
	free  int32 // freelist head, chained through next; 0 = empty

	hits, misses uint64
}

type cacheNode struct {
	page       int64
	file       int32
	prev, next int32
}

// NewBufferCache creates a cache of the given byte capacity over disk.
func NewBufferCache(disk *hw.Disk, capacity int64) *BufferCache {
	if capacity < 0 {
		capacity = 0
	}
	return &BufferCache{
		disk:     disk,
		capacity: capacity,
		files:    map[string]int32{},
		nodes:    make([]cacheNode, 1),
	}
}

// Hits returns the number of pages served from memory.
func (c *BufferCache) Hits() uint64 { return c.hits }

// Misses returns the number of pages that went to the device.
func (c *BufferCache) Misses() uint64 { return c.misses }

// CachedBytes returns the bytes currently resident.
func (c *BufferCache) CachedBytes() int64 { return c.used }

// Capacity returns the configured byte capacity.
func (c *BufferCache) Capacity() int64 { return c.capacity }

func pageRange(off, size int64) (first, last int64) {
	if size <= 0 {
		size = 1
	}
	return off / CachePageSize, (off + size - 1) / CachePageSize
}

// caching reports whether the cache can hold a page at all; a smaller
// cache never inserts, so every read misses.
func (c *BufferCache) caching() bool { return c.capacity >= CachePageSize }

// intern returns file's id, assigning one on first use.
func (c *BufferCache) intern(file string) int32 {
	if id, ok := c.files[file]; ok {
		return id
	}
	var id int32
	if n := len(c.freeFiles); n > 0 {
		id = c.freeFiles[n-1]
		c.freeFiles = c.freeFiles[:n-1]
	} else {
		id = int32(len(c.tables))
		c.tables = append(c.tables, nil)
	}
	c.files[file] = id
	return id
}

// lookup returns the node caching page pg of file id, or 0.
func (c *BufferCache) lookup(id int32, pg int64) int32 {
	if t := c.tables[id]; pg < int64(len(t)) {
		return t[pg]
	}
	return 0
}

// touch moves page pg of file id to the front if cached and reports
// whether it was.
func (c *BufferCache) touch(id int32, pg int64) bool {
	n := c.lookup(id, pg)
	if n == 0 {
		return false
	}
	c.moveToFront(n)
	return true
}

// insert caches page pg of file id at the front (or just touches it if
// already cached).
func (c *BufferCache) insert(id int32, pg int64) {
	if !c.touch(id, pg) {
		c.add(id, pg)
	}
}

// add caches page pg of file id, which must not be cached, at the front,
// evicting least recently used pages to make room.
func (c *BufferCache) add(id int32, pg int64) {
	for c.used+CachePageSize > c.capacity && c.used > 0 {
		c.evictOldest()
	}
	n := c.alloc()
	c.nodes[n].file, c.nodes[n].page = id, pg
	c.pushFront(n)
	t := c.tables[id]
	if pg >= int64(len(t)) {
		old := len(t)
		if pg < int64(cap(t)) {
			t = t[:pg+1]
		} else {
			t = append(t[:cap(t)], make([]int32, int(pg+1)-cap(t))...)
		}
		clear(t[old:])
		c.tables[id] = t
	}
	t[pg] = n
	c.used += CachePageSize
}

func (c *BufferCache) evictOldest() {
	n := c.nodes[0].prev
	nd := &c.nodes[n]
	c.tables[nd.file][nd.page] = 0
	c.unlink(n)
	c.recycle(n)
	c.used -= CachePageSize
}

func (c *BufferCache) alloc() int32 {
	if n := c.free; n != 0 {
		c.free = c.nodes[n].next
		return n
	}
	c.nodes = append(c.nodes, cacheNode{})
	return int32(len(c.nodes) - 1)
}

func (c *BufferCache) recycle(n int32) {
	c.nodes[n] = cacheNode{next: c.free}
	c.free = n
}

func (c *BufferCache) pushFront(n int32) {
	head := c.nodes[0].next
	c.nodes[n].prev, c.nodes[n].next = 0, head
	c.nodes[head].prev = n
	c.nodes[0].next = n
}

func (c *BufferCache) unlink(n int32) {
	nd := &c.nodes[n]
	c.nodes[nd.prev].next = nd.next
	c.nodes[nd.next].prev = nd.prev
}

func (c *BufferCache) moveToFront(n int32) {
	if c.nodes[0].next == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

// fetch walks [off, off+size) of file, counting hits and misses and
// caching the missed pages; it returns the bytes the device must supply.
func (c *BufferCache) fetch(file string, off, size int64) (missing int64) {
	first, last := pageRange(off, size)
	if !c.caching() {
		c.misses += uint64(last - first + 1)
		return (last - first + 1) * CachePageSize
	}
	id := c.intern(file)
	for pg := first; pg <= last; pg++ {
		if c.touch(id, pg) {
			c.hits++
			continue
		}
		c.misses++
		missing += CachePageSize
		c.add(id, pg)
	}
	return missing
}

// Read fetches [off, off+size) of file through the cache and invokes
// done when the data is available. Missing pages are fetched from the
// device in a single request; fully cached reads complete after a memory
// copy latency.
func (c *BufferCache) Read(k *sim.Kernel, file string, off, size int64, done func()) {
	missing := c.fetch(file, off, size)
	if missing == 0 {
		k.After(hitLatency, done)
		return
	}
	c.disk.Submit(missing, done)
}

// ReadSequential is Read for streaming access patterns: device fetches
// skip the per-request seek, as the host readahead would arrange.
func (c *BufferCache) ReadSequential(k *sim.Kernel, file string, off, size int64, done func()) {
	missing := c.fetch(file, off, size)
	if missing == 0 {
		k.After(hitLatency, done)
		return
	}
	c.disk.SubmitSequential(missing, done)
}

// Write stores [off, off+size) of file through the cache (write-through)
// and invokes done when the device has absorbed the data. The written
// pages become resident.
func (c *BufferCache) Write(k *sim.Kernel, file string, off, size int64, done func()) {
	c.write(k, file, off, size, done, false)
}

// WriteSequential is Write without the per-request seek charge, for
// streaming writers creating fresh files (e.g. image copies).
func (c *BufferCache) WriteSequential(k *sim.Kernel, file string, off, size int64, done func()) {
	c.write(k, file, off, size, done, true)
}

func (c *BufferCache) write(k *sim.Kernel, file string, off, size int64, done func(), sequential bool) {
	if c.caching() {
		id := c.intern(file)
		first, last := pageRange(off, size)
		for pg := first; pg <= last; pg++ {
			c.insert(id, pg)
		}
	}
	if size <= 0 {
		k.After(hitLatency, done)
		return
	}
	if sequential {
		c.disk.SubmitSequential(size, done)
		return
	}
	c.disk.Submit(size, done)
}

// Invalidate drops all cached pages of file (e.g. when it is deleted)
// and releases its interned id, so a long-lived host that creates and
// deletes files does not grow the index.
func (c *BufferCache) Invalidate(file string) {
	id, ok := c.files[file]
	if !ok {
		return
	}
	t := c.tables[id]
	for _, n := range t {
		if n != 0 {
			c.unlink(n)
			c.recycle(n)
			c.used -= CachePageSize
		}
	}
	clear(t)
	c.tables[id] = t[:0]
	delete(c.files, file)
	c.freeFiles = append(c.freeFiles, id)
}
