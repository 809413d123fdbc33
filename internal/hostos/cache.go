package hostos

import (
	"vmgrid/internal/hw"
	"vmgrid/internal/lru"
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
// The page index does no hashing per call: a file name is interned to a
// small id once, with Intern, by whoever creates the file, every read
// and write carries that id, and pages live in an lru.Blocks. A new
// cache allocates its index page by page as pages are first cached, so
// a host that caches little pays little whatever its capacity, and a
// cache at steady state allocates nothing. Offsets must be
// non-negative.
type BufferCache struct {
	disk     *hw.Disk
	capacity int64 // bytes
	pages    *lru.Blocks

	hits, misses uint64
}

// NewBufferCache creates a cache of the given byte capacity over disk.
func NewBufferCache(disk *hw.Disk, capacity int64) *BufferCache {
	if capacity < 0 {
		capacity = 0
	}
	return &BufferCache{
		disk:     disk,
		capacity: capacity,
		pages:    lru.NewBlocks(int(capacity / CachePageSize)),
	}
}

// Hits returns the number of pages served from memory.
func (c *BufferCache) Hits() uint64 { return c.hits }

// Misses returns the number of pages that went to the device.
func (c *BufferCache) Misses() uint64 { return c.misses }

// CachedBytes returns the bytes currently resident.
func (c *BufferCache) CachedBytes() int64 { return int64(c.pages.Len()) * CachePageSize }

// Capacity returns the configured byte capacity.
func (c *BufferCache) Capacity() int64 { return c.capacity }

func pageRange(off, size int64) (first, last int64) {
	if size <= 0 {
		size = 1
	}
	return off / CachePageSize, (off + size - 1) / CachePageSize
}

// Intern returns file's id, assigning one on first use. Read, Write and
// their sequential forms take the id; it stays file's until Invalidate
// releases it.
func (c *BufferCache) Intern(file string) int32 { return c.pages.Intern(file) }

// fetch walks [off, off+size) of file id, counting hits and misses and
// caching the missed pages, with one range call; it returns the bytes
// the device must supply.
func (c *BufferCache) fetch(id int32, off, size int64) (missing int64) {
	first, last := pageRange(off, size)
	hits := int64(c.pages.InsertRange(id, first, last))
	misses := last - first + 1 - hits
	c.hits += uint64(hits)
	c.misses += uint64(misses)
	return misses * CachePageSize
}

// Read fetches [off, off+size) of file id through the cache and invokes
// done when the data is available. Missing pages are fetched from the
// device in a single request; fully cached reads complete after a memory
// copy latency.
func (c *BufferCache) Read(k *sim.Kernel, id int32, off, size int64, done func()) {
	missing := c.fetch(id, off, size)
	if missing == 0 {
		k.After(hitLatency, done)
		return
	}
	c.disk.Submit(missing, done)
}

// ReadSequential is Read for streaming access patterns: device fetches
// skip the per-request seek, as the host readahead would arrange.
func (c *BufferCache) ReadSequential(k *sim.Kernel, id int32, off, size int64, done func()) {
	missing := c.fetch(id, off, size)
	if missing == 0 {
		k.After(hitLatency, done)
		return
	}
	c.disk.SubmitSequential(missing, done)
}

// Write stores [off, off+size) of file id through the cache (write-through)
// and invokes done when the device has absorbed the data. The written
// pages become resident.
func (c *BufferCache) Write(k *sim.Kernel, id int32, off, size int64, done func()) {
	c.write(k, id, off, size, done, false)
}

// WriteSequential is Write without the per-request seek charge, for
// streaming writers creating fresh files (e.g. image copies).
func (c *BufferCache) WriteSequential(k *sim.Kernel, id int32, off, size int64, done func()) {
	c.write(k, id, off, size, done, true)
}

func (c *BufferCache) write(k *sim.Kernel, id int32, off, size int64, done func(), sequential bool) {
	first, last := pageRange(off, size)
	c.pages.InsertRange(id, first, last)
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
// deletes files does not grow the index. The next Intern of file
// starts it cold.
func (c *BufferCache) Invalidate(file string) { c.pages.Release(file) }
