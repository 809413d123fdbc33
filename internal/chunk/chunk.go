// Package chunk is the content-addressed transfer plane: VM state files
// are split into fixed-size chunks, each named by a key that stands in
// for a collision-free content hash. Stores keep a per-file key
// manifest, every node keeps a cache of the chunk keys whose content
// it holds, and the staging paths
// (gram.Stage: session staging, checkpoints, failover restores and
// migrations) move only the chunks the destination lacks — the paper's "reducing VM overheads"
// argument applied to the state-transfer hot path.
//
// The simulation carries no real bytes, so content identity is modeled
// rather than computed: a key is minted whenever new content comes into
// being (file creation, a guest write dirtying a chunk) and propagated
// whenever content is copied (Store.Copy, staging). Two
// chunks share a key exactly when one was copied from the other, which
// is the conservative under-approximation of a real content hash:
// dedup hits are always sound, independent re-creations of identical
// content just miss. Key 0 is reserved for the all-zero chunk (file
// holes), which every hole legitimately shares.
//
// Keys are only ever compared for equality, so the plane mints them as
// a dense counter, and a node cache is a bitmap over the key space,
// paged so that a cache pays only for the key ranges it touches.
package chunk

// Key names one chunk's content. The zero Key is the all-zero chunk.
type Key uint64

// DefaultChunkBytes is the chunk size used when Config leaves it zero:
// large enough that manifest overhead stays ~0.003% of the data, small
// enough that a 64 KiB COW page write dirties at most two chunks.
const DefaultChunkBytes int64 = 256 << 10

// Config tunes the plane.
type Config struct {
	// ChunkBytes is the fixed chunk size (default DefaultChunkBytes).
	ChunkBytes int64
}

// Stats aggregates chunk-cache accounting, per cache or plane-wide.
type Stats struct {
	// Hits counts staging lookups answered from the destination cache
	// (chunks that never crossed the wire).
	Hits uint64
	// Misses counts lookups that forced a transfer.
	Misses uint64
	// BytesSaved is the payload bytes dedup kept off the wire.
	BytesSaved uint64
}

// HitRate returns Hits/(Hits+Misses), 0 when no lookups happened.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Plane is one grid's chunk namespace: the mint for fresh content keys
// and the per-node caches. A single Plane must be shared by every store
// that should dedup against each other.
type Plane struct {
	cfg    Config
	minted uint64
	caches map[string]*Cache
}

// NewPlane creates a plane with the given configuration.
func NewPlane(cfg Config) *Plane {
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = DefaultChunkBytes
	}
	return &Plane{cfg: cfg, caches: make(map[string]*Cache)}
}

// ChunkBytes returns the plane's chunk size.
func (p *Plane) ChunkBytes() int64 { return p.cfg.ChunkBytes }

// Mint issues a key for content that just came into being: the next
// value of the plane's counter, starting at 1 (0 is the zero chunk).
// Keys are globally fresh, never colliding with any previously minted
// key, so a minted chunk matches a cache entry only through explicit
// propagation. Consecutive mints are adjacent, which keeps a file's
// chunks on one cache page.
func (p *Plane) Mint() Key {
	p.minted++
	return Key(p.minted)
}

// Count returns how many chunks a file of the given size spans.
func (p *Plane) Count(size int64) int {
	if size <= 0 {
		return 0
	}
	return int((size + p.cfg.ChunkBytes - 1) / p.cfg.ChunkBytes)
}

// Span returns the extent [off, off+n) of chunk i in a file of the
// given size.
func (p *Plane) Span(size int64, i int) (off, n int64) {
	off = int64(i) * p.cfg.ChunkBytes
	n = p.cfg.ChunkBytes
	if off+n > size {
		n = size - off
	}
	return off, n
}

// CacheFor returns node's chunk cache, creating it on first use.
func (p *Plane) CacheFor(node string) *Cache {
	c := p.caches[node]
	if c == nil {
		c = &Cache{pages: make(map[Key]*page)}
		p.caches[node] = c
	}
	return c
}

// Stats sums every node cache's counters. Addition commutes, so the
// result is independent of map iteration order.
func (p *Plane) Stats() Stats {
	var out Stats
	for _, c := range p.caches {
		s := c.Stats()
		out.Hits += s.Hits
		out.Misses += s.Misses
		out.BytesSaved += s.BytesSaved
	}
	return out
}

// Cache is one node's chunk holdings: the set of keys whose content is
// materialized somewhere on the node (a file, or retained content-store
// blocks after the file was deleted). Every chunk a node ever held
// stays nameable — the cache never evicts, so it keeps no recency
// order and no per-key size: membership is one bit per key, in pages
// of pageKeys consecutive keys, allocated on first touch. Minted keys
// are dense, so a file's chunks share a page; any other key (a test's
// random one, ^Key(0)) costs at most a page of its own.
type Cache struct {
	pages map[Key]*page // by k >> pageShift
	n     int
	used  int64
	stats Stats
}

const (
	pageShift = 12
	pageKeys  = 1 << pageShift
)

// page holds the membership bits of pageKeys consecutive keys.
type page [pageKeys / 64]uint64

// bit locates k's membership bit: the page (nil if never touched), the
// word index within it, and the mask.
func (c *Cache) bit(k Key) (*page, Key, uint64) {
	return c.pages[k>>pageShift], k % pageKeys / 64, 1 << (k % 64)
}

// Len returns the number of cached keys.
func (c *Cache) Len() int { return c.n }

// UsedBytes returns the bytes the cached chunks occupy.
func (c *Cache) UsedBytes() int64 { return c.used }

// Stats returns the cache's counters.
func (c *Cache) Stats() Stats { return c.stats }

// Contains reports whether the key is cached, without touching the
// accounting (for assertions and scrapes).
func (c *Cache) Contains(k Key) bool {
	pg, w, mask := c.bit(k)
	return pg != nil && pg[w]&mask != 0
}

// Lookup is the staging-time membership test: a hit records size bytes
// saved; a miss records the forced transfer.
func (c *Cache) Lookup(k Key, size int64) bool {
	if c.Contains(k) {
		c.stats.Hits++
		c.stats.BytesSaved += uint64(size)
		return true
	}
	c.stats.Misses++
	return false
}

// Add records that the node now holds the chunk. Re-adding a key the
// node already holds changes nothing.
func (c *Cache) Add(k Key, size int64) {
	pg, w, mask := c.bit(k)
	if pg == nil {
		pg = new(page)
		c.pages[k>>pageShift] = pg
	}
	if pg[w]&mask != 0 {
		return
	}
	pg[w] |= mask
	c.n++
	c.used += size
}
