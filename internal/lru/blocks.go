package lru

import (
	"fmt"
	"math"
)

// Page geometry. Node n lives in node page n>>nodePageShift, slot
// n&nodePageMask; block b of a file lives in the table page covering
// b>>tablePageShift, slot b&tablePageMask.
const (
	nodePageShift  = 10
	nodePageSize   = 1 << nodePageShift
	nodePageMask   = nodePageSize - 1
	tablePageShift = 10
	tablePageSize  = 1 << tablePageShift
	tablePageMask  = tablePageSize - 1
)

// Blocks is an LRU set of at most cap (file, block) pairs that hashes
// nothing per block, for the block caches of the data plane: the host
// buffer cache's pages and the vfs proxy's blocks. A file name is
// interned to a small id once, by the caller, with Intern.
//
// Memory is paid only for what is cached, and growth never copies.
// The recency list threads a pointer-free node slab made of fixed
// pages, allocated one at a time as the cache fills and never more
// than the capacity needs. Each file's block table (block → node
// index) has two levels: a directory spanning the file's lowest to
// highest touched 1024-block range, and a table page for each range
// that holds a cached block. A page whose last block is evicted or
// released goes, zeroed, onto a free list that later inserts reuse, so
// a file streamed through the cache holds pages only where it is
// cached. NewBlocks allocates no page, and a set at steady state
// allocates nothing.
//
// Block indexes must lie in [0, math.MaxUint32]: a node stores its
// block in 32 bits, which keeps it at 16 bytes. The zero value is not
// usable; call NewBlocks.
type Blocks struct {
	cap int

	files     map[string]int32 // interned file name → id
	tables    []table          // id → block directory
	freeFiles []int32          // ids released by Release
	freePages []*tablePage     // zeroed table pages no range holds

	// nodes is the node slab; node 0 is never used, so 0 means none.
	// head is the most recently used block, tail the least.
	nodes      []*[nodePageSize]blockNode
	used       int32 // slab slots handed out, node 0's included
	free       int32 // freelist head, chained through next
	head, tail int32
	n          int // blocks cached
}

type blockNode struct {
	block      uint32
	file       int32
	prev, next int32
}

// tablePage maps a 1024-block range to node indexes; 0 = not cached.
type tablePage [tablePageSize]int32

// table is one file's block directory: pages[i] covers table page
// base+i.
type table struct {
	base  int64
	pages []tableRef
}

// tableRef is one directory entry: its page, nil while none of the
// range's blocks is cached, and how many are.
type tableRef struct {
	slots *tablePage
	live  int32
}

// NewBlocks creates a set holding at most capacity blocks; with
// capacity < 1 it holds none.
func NewBlocks(capacity int) *Blocks {
	return &Blocks{cap: capacity, files: map[string]int32{}, used: 1}
}

// Len returns the number of cached blocks.
func (c *Blocks) Len() int { return c.n }

// Intern returns file's id, assigning one on first use.
func (c *Blocks) Intern(file string) int32 {
	if id, ok := c.files[file]; ok {
		return id
	}
	var id int32
	if n := len(c.freeFiles); n > 0 {
		id = c.freeFiles[n-1]
		c.freeFiles = c.freeFiles[:n-1]
	} else {
		id = int32(len(c.tables))
		c.tables = append(c.tables, table{})
	}
	c.files[file] = id
	return id
}

// Touch moves block b of file id to the front if cached and reports
// whether it was.
func (c *Blocks) Touch(id int32, b int64) bool {
	t := &c.tables[id]
	p := uint64(b>>tablePageShift - t.base)
	if p >= uint64(len(t.pages)) || t.pages[p].slots == nil {
		return false
	}
	n := t.pages[p].slots[b&tablePageMask]
	if n == 0 {
		return false
	}
	c.moveToFront(n)
	return true
}

// Insert caches block b of file id at the front (or just touches it if
// already cached), evicting least recently used blocks to make room.
// It panics on a block index outside [0, math.MaxUint32].
func (c *Blocks) Insert(id int32, b int64) {
	if uint64(b) > math.MaxUint32 {
		panic(fmt.Sprintf("lru: block index %d outside [0, %d]", b, uint32(math.MaxUint32)))
	}
	if c.cap < 1 {
		return
	}
	t := &c.tables[id]
	var r *tableRef
	if p := uint64(b>>tablePageShift - t.base); p < uint64(len(t.pages)) {
		r = &t.pages[p]
		if r.slots != nil {
			if n := r.slots[b&tablePageMask]; n != 0 {
				c.moveToFront(n)
				return
			}
		}
	}
	// A full cache reuses its least recently used node. Eviction may
	// free r's page but never moves a directory, so r stays valid.
	var n int32
	if c.n >= c.cap {
		n = c.evictOldest()
	} else {
		n = c.alloc()
		c.n++
	}
	if r == nil {
		r = t.extend(b >> tablePageShift)
	}
	if r.slots == nil {
		if k := len(c.freePages); k > 0 {
			r.slots = c.freePages[k-1]
			c.freePages = c.freePages[:k-1]
		} else {
			r.slots = new(tablePage)
		}
	}
	nd := c.node(n)
	nd.file, nd.block = id, uint32(b)
	c.pushFront(n, nd)
	r.slots[b&tablePageMask] = n
	r.live++
}

// extend grows t's directory to cover table page p and returns p's
// entry.
func (t *table) extend(p int64) *tableRef {
	switch {
	case len(t.pages) == 0:
		t.base = p
		t.pages = append(t.pages, tableRef{})
	case p < t.base:
		grow, old := int(t.base-p), len(t.pages)
		t.pages = append(t.pages, make([]tableRef, grow)...)
		copy(t.pages[grow:], t.pages[:old])
		clear(t.pages[:grow])
		t.base = p
	default:
		t.pages = append(t.pages, make([]tableRef, int(p-t.base)+1-len(t.pages))...)
	}
	return &t.pages[p-t.base]
}

// Release drops every cached block of file and frees its id and its
// table pages for reuse, so a long-lived cache over files created and
// deleted does not grow its index.
func (c *Blocks) Release(file string) {
	id, ok := c.files[file]
	if !ok {
		return
	}
	t := &c.tables[id]
	for i := range t.pages {
		r := &t.pages[i]
		if r.slots == nil {
			continue
		}
		for _, n := range r.slots {
			if n != 0 {
				c.unlink(c.node(n))
				c.recycle(n)
				c.n--
			}
		}
		*r.slots = tablePage{}
		c.freePages = append(c.freePages, r.slots)
		*r = tableRef{}
	}
	t.pages = t.pages[:0]
	delete(c.files, file)
	c.freeFiles = append(c.freeFiles, id)
}

func (c *Blocks) node(n int32) *blockNode {
	return &c.nodes[n>>nodePageShift][n&nodePageMask]
}

// evictOldest unlinks the least recently used block and returns its
// node for reuse, returning its table page to the free list if it was
// the page's last.
func (c *Blocks) evictOldest() int32 {
	n := c.tail
	nd := c.node(n)
	t := &c.tables[nd.file]
	r := &t.pages[int64(nd.block>>tablePageShift)-t.base]
	r.slots[nd.block&tablePageMask] = 0
	if r.live--; r.live == 0 {
		c.freePages = append(c.freePages, r.slots)
		r.slots = nil
	}
	c.unlink(nd)
	return n
}

// alloc takes a node from the freelist, else the next unused slab
// slot, allocating that slot's page on first use.
func (c *Blocks) alloc() int32 {
	if n := c.free; n != 0 {
		c.free = c.node(n).next
		return n
	}
	n := c.used
	if int(n>>nodePageShift) == len(c.nodes) {
		c.nodes = append(c.nodes, new([nodePageSize]blockNode))
	}
	c.used++
	return n
}

func (c *Blocks) recycle(n int32) {
	*c.node(n) = blockNode{next: c.free}
	c.free = n
}

// pushFront links node n, whose node is nd, in as the most recently
// used.
func (c *Blocks) pushFront(n int32, nd *blockNode) {
	nd.prev, nd.next = 0, c.head
	if c.head != 0 {
		c.node(c.head).prev = n
	} else {
		c.tail = n
	}
	c.head = n
}

func (c *Blocks) unlink(nd *blockNode) {
	if nd.prev != 0 {
		c.node(nd.prev).next = nd.next
	} else {
		c.head = nd.next
	}
	if nd.next != 0 {
		c.node(nd.next).prev = nd.prev
	} else {
		c.tail = nd.prev
	}
}

// moveToFront makes node n the most recently used. It is unlink then
// pushFront, specialized: n is not the head, so it has a prev, and the
// list is not empty, so head is a node. Holding the slab in a local
// keeps its header in registers across the stores.
func (c *Blocks) moveToFront(n int32) {
	head := c.head
	if head == n {
		return
	}
	nodes := c.nodes
	nd := &nodes[n>>nodePageShift][n&nodePageMask]
	prev, next := nd.prev, nd.next
	nodes[prev>>nodePageShift][prev&nodePageMask].next = next
	if next != 0 {
		nodes[next>>nodePageShift][next&nodePageMask].prev = prev
	} else {
		c.tail = prev
	}
	nd.prev, nd.next = 0, head
	nodes[head>>nodePageShift][head&nodePageMask].prev = n
	c.head = n
}
