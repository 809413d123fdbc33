package lru

// Blocks is an LRU set of at most cap (file, block) pairs that hashes
// nothing per block, for the block caches of the data plane: the host
// buffer cache's pages and the vfs proxy's blocks. A file name is
// interned to a small id once, by the caller, with Intern; each file
// has a block table (block → node index) grown to its highest cached
// block; and the recency list threads a pointer-free node slab with a
// freelist. A set at steady state allocates nothing. Blocks must be
// non-negative. The zero value is not usable; call NewBlocks.
type Blocks struct {
	cap int

	files     map[string]int32 // interned file name → id
	tables    [][]int32        // id → block → node index; 0 = not cached
	freeFiles []int32          // ids released by Release

	// nodes[0] is the list sentinel: its next is the most recently used
	// block, its prev the least recently used.
	nodes []blockNode
	free  int32 // freelist head, chained through next; 0 = empty
	n     int   // blocks cached
}

type blockNode struct {
	block      int64
	file       int32
	prev, next int32
}

// NewBlocks creates a set holding at most capacity blocks; with
// capacity < 1 it holds none.
func NewBlocks(capacity int) *Blocks {
	return &Blocks{cap: capacity, files: map[string]int32{}, nodes: make([]blockNode, 1)}
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
		c.tables = append(c.tables, nil)
	}
	c.files[file] = id
	return id
}

// Touch moves block b of file id to the front if cached and reports
// whether it was.
func (c *Blocks) Touch(id int32, b int64) bool {
	t := c.tables[id]
	if b >= int64(len(t)) || t[b] == 0 {
		return false
	}
	c.moveToFront(t[b])
	return true
}

// Insert caches block b of file id at the front (or just touches it if
// already cached), evicting least recently used blocks to make room.
func (c *Blocks) Insert(id int32, b int64) {
	if c.cap < 1 || c.Touch(id, b) {
		return
	}
	for c.n >= c.cap {
		c.evictOldest()
	}
	n := c.alloc()
	c.nodes[n].file, c.nodes[n].block = id, b
	c.pushFront(n)
	t := c.tables[id]
	if b >= int64(len(t)) {
		old := len(t)
		if b < int64(cap(t)) {
			t = t[:b+1]
		} else {
			t = append(t[:cap(t)], make([]int32, int(b+1)-cap(t))...)
		}
		clear(t[old:])
		c.tables[id] = t
	}
	t[b] = n
	c.n++
}

// Release drops every cached block of file and frees its id for reuse,
// so a long-lived cache over files created and deleted does not grow
// its index.
func (c *Blocks) Release(file string) {
	id, ok := c.files[file]
	if !ok {
		return
	}
	t := c.tables[id]
	for _, n := range t {
		if n != 0 {
			c.unlink(n)
			c.recycle(n)
			c.n--
		}
	}
	clear(t)
	c.tables[id] = t[:0]
	delete(c.files, file)
	c.freeFiles = append(c.freeFiles, id)
}

func (c *Blocks) evictOldest() {
	n := c.nodes[0].prev
	nd := &c.nodes[n]
	c.tables[nd.file][nd.block] = 0
	c.unlink(n)
	c.recycle(n)
	c.n--
}

func (c *Blocks) alloc() int32 {
	if n := c.free; n != 0 {
		c.free = c.nodes[n].next
		return n
	}
	c.nodes = append(c.nodes, blockNode{})
	return int32(len(c.nodes) - 1)
}

func (c *Blocks) recycle(n int32) {
	c.nodes[n] = blockNode{next: c.free}
	c.free = n
}

func (c *Blocks) pushFront(n int32) {
	head := c.nodes[0].next
	c.nodes[n].prev, c.nodes[n].next = 0, head
	c.nodes[head].prev = n
	c.nodes[0].next = n
}

func (c *Blocks) unlink(n int32) {
	nd := &c.nodes[n]
	c.nodes[nd.prev].next = nd.next
	c.nodes[nd.next].prev = nd.prev
}

func (c *Blocks) moveToFront(n int32) {
	if c.nodes[0].next == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}
