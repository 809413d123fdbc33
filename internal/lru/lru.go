// Package lru provides the recency indexes of the simulation data
// plane's caches. Blocks, an LRU of (file, block) pairs that hashes
// nothing per block, backs the host buffer cache and the vfs proxy
// block cache; it keeps its recency order as runs of blocks and takes
// range calls, so a sequential stream pays per run rather than per
// block, and it grows by fixed pages, so a cache pays only for the
// ranges it holds blocks in, and growth never copies. Cache, an LRU set
// of comparable keys, has no production user left: it stays as the
// plain reference the differential tests of this package, hostos, vfs
// and chunk pin the data-plane caches against. Both replace
// container/list: nodes are recycled, so a cache operating at steady
// state performs no allocations at all.
package lru

// Cache is an LRU set of keys. It tracks recency only; byte accounting
// stays with the caller. The zero value is not usable; call New.
type Cache[K comparable] struct {
	index map[K]*node[K]
	head  *node[K] // most recently used
	tail  *node[K] // least recently used
	free  *node[K] // recycled nodes, chained through next
}

type node[K comparable] struct {
	key        K
	prev, next *node[K]
}

// New creates a cache whose index is pre-sized for sizeHint entries.
func New[K comparable](sizeHint int) *Cache[K] {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &Cache[K]{index: make(map[K]*node[K], sizeHint)}
}

// Len returns the number of cached keys.
func (c *Cache[K]) Len() int { return len(c.index) }

// Touch moves key to the front if present and reports whether it was.
func (c *Cache[K]) Touch(key K) bool {
	n, ok := c.index[key]
	if !ok {
		return false
	}
	c.moveToFront(n)
	return true
}

// Insert adds key at the front (or just touches it if already present).
func (c *Cache[K]) Insert(key K) {
	if n, ok := c.index[key]; ok {
		c.moveToFront(n)
		return
	}
	n := c.alloc()
	n.key = key
	c.index[key] = n
	c.pushFront(n)
}

// EvictOldest removes and returns the least recently used key; ok is
// false when the cache is empty.
func (c *Cache[K]) EvictOldest() (key K, ok bool) {
	if c.tail == nil {
		var zero K
		return zero, false
	}
	n := c.tail
	key = n.key
	c.unlink(n)
	delete(c.index, key)
	c.recycle(n)
	return key, true
}

// Remove deletes key and reports whether it was present.
func (c *Cache[K]) Remove(key K) bool {
	n, ok := c.index[key]
	if !ok {
		return false
	}
	c.unlink(n)
	delete(c.index, key)
	c.recycle(n)
	return true
}

// Filter removes every key for which drop returns true, scanning from
// least to most recently used. Used by cold invalidation paths.
func (c *Cache[K]) Filter(drop func(K) bool) {
	for n := c.tail; n != nil; {
		prev := n.prev
		if drop(n.key) {
			c.unlink(n)
			delete(c.index, n.key)
			c.recycle(n)
		}
		n = prev
	}
}

func (c *Cache[K]) alloc() *node[K] {
	if n := c.free; n != nil {
		c.free = n.next
		n.next = nil
		return n
	}
	return &node[K]{}
}

func (c *Cache[K]) recycle(n *node[K]) {
	var zero K
	n.key = zero
	n.prev = nil
	n.next = c.free
	c.free = n
}

func (c *Cache[K]) pushFront(n *node[K]) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *Cache[K]) unlink(n *node[K]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *Cache[K]) moveToFront(n *node[K]) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}
