package lru

import (
	"fmt"
	"math"
)

// Page geometry. Run n lives in node page n>>nodePageShift, slot
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
// interned to a small id once, by the caller, with Intern. Callers name
// blocks by range: InsertRange and TouchRange do, in ascending block
// order, what a loop of one-block calls would, and pay per run of
// blocks rather than per block.
//
// The recency order is stored run-length encoded. A run is a file, a
// first block and a count, held at consecutive recency positions with
// the oldest block first; the recency list links runs, not blocks.
// Appending the block after the most recently used run's last one
// extends that run, eviction takes blocks off the front of the least
// recently used run, and promoting cached blocks cuts them out of their
// run (leaving at most two pieces; the largest piece keeps the run and
// the others' blocks are relabeled) and appends them to the most
// recently used run.
//
// Memory is paid only for what is cached, and growth never copies.
// Runs live in a pointer-free node slab made of fixed pages, allocated
// one at a time as runs are needed. Each file's block table (block →
// run) has two levels: a directory spanning the lowest to highest
// 1024-block range the file touched since it last held no cached
// block, and a table page for each range that holds a cached block. A
// slot names the run holding its block only while the block is cached:
// eviction leaves slots as they are, so a lookup checks the named run's
// file and range (find). A page whose last block is evicted or released
// goes, zeroed, onto a free list that later inserts reuse, so a file
// streamed through the cache holds pages only where it is cached, and a
// reused page names no stale runs. When a file's last page goes, its
// directory is emptied (see reset). NewBlocks allocates no page, and a
// set at steady state allocates nothing.
//
// Block indexes must lie in [0, math.MaxUint32]: a run stores its
// first block in 32 bits, which keeps it at 20 bytes. The zero value is
// not usable; call NewBlocks.
type Blocks struct {
	cap int

	files     map[string]int32 // interned file name → id
	tables    []table          // id → block directory
	freeFiles []int32          // ids released by Release
	freePages []*tablePage     // zeroed table pages no range holds

	// nodes is the run slab; run 0 is never used, so 0 means none.
	// head is the most recently used run, tail the least.
	nodes      []*[nodePageSize]run
	used       int32 // slab slots handed out, run 0's included
	free       int32 // freelist head, chained through next
	head, tail int32
	n          int // blocks cached

	// The head run's file and blocks [mruFirst, mruEnd), as of the end
	// of the last call that changed the set, for atHead. mruFile is -1
	// while the set is empty.
	mruFile          int32
	mruFirst, mruEnd int64
}

// run is blocks [first, first+count) of file, in recency order from
// first (oldest) to the last (newest). prev is the next more recently
// used run, next the next less recently used one.
type run struct {
	file       int32
	first      uint32
	count      int32
	prev, next int32
}

// end returns the block after r's last.
func (r *run) end() int64 { return int64(r.first) + int64(r.count) }

// tablePage maps a 1024-block range to the runs holding its blocks; a
// slot of a block not cached holds 0 or a stale run (see find).
type tablePage [tablePageSize]int32

// table is one file's block directory: pages[i] covers table page
// base+i, and held of them have a page.
type table struct {
	base  int64
	pages []tableRef
	held  int
}

// dirKeep is the largest directory, in entries, whose array a file
// keeps once it holds no cached block: 1024 entries (16 KB) span 1<<20
// blocks, a whole image at any block size in use, so a file that is
// cached again does not regrow it. A larger, sparse one is dropped.
const dirKeep = 1024

// reset empties t's directory, which holds no page, so a file whose
// blocks have all gone keeps no directory spanning where they were.
func (t *table) reset() {
	t.base, t.held = 0, 0
	if cap(t.pages) > dirKeep {
		t.pages = nil
	} else {
		t.pages = t.pages[:0]
	}
}

// tableRef is one directory entry: its page, nil while none of the
// range's blocks is cached, and how many are (live).
type tableRef struct {
	slots *tablePage
	live  int32
}

// NewBlocks creates a set holding at most capacity blocks; with
// capacity < 1 it holds none.
func NewBlocks(capacity int) *Blocks {
	return &Blocks{cap: capacity, files: map[string]int32{}, used: 1, mruFile: -1}
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

// Runs calls fn(id, first, last) for each run, least recently used
// first; within a run, blocks first..last of file id run from least to
// most recently used. It is the read-only view the differential tests
// compare with their references.
func (c *Blocks) Runs(fn func(id int32, first, last int64)) {
	for n := c.tail; n != 0; n = c.node(n).prev {
		nd := c.node(n)
		fn(nd.file, int64(nd.first), nd.end()-1)
	}
}

// TouchRange makes the cached blocks among first..last of file id the
// most recently used, in ascending order, and appends the others to
// missing, which it returns.
func (c *Blocks) TouchRange(id int32, first, last int64, missing []int64) []int64 {
	if c.atHead(id, first, last) {
		return missing
	}
	t := &c.tables[id]
	for b := first; b <= last; {
		if n, end := c.find(t, id, b); n != 0 {
			b = c.touchRun(id, n, b, end, last)
			continue
		}
		for e := c.missingEnd(t, id, b, last); b < e; b++ {
			missing = append(missing, b)
		}
	}
	c.noteHead()
	return missing
}

// InsertRange does for each block of first..last of file id, in
// ascending order, what a page cache does on access: a cached block
// becomes the most recently used; any other is cached there, after the
// least recently used block is evicted if the set is full. A range
// longer than the capacity so evicts its own earlier blocks. It returns
// how many blocks were cached already, and panics on a block index
// outside [0, math.MaxUint32].
func (c *Blocks) InsertRange(id int32, first, last int64) (hits int) {
	if first < 0 || last > math.MaxUint32 {
		panic(fmt.Sprintf("lru: block range %d..%d outside [0, %d]", first, last, uint32(math.MaxUint32)))
	}
	if c.atHead(id, first, last) {
		return int(last - first + 1)
	}
	if c.cap < 1 {
		return 0
	}
	t := &c.tables[id]
	for b := first; b <= last; {
		if n, end := c.find(t, id, b); n != 0 {
			next := c.touchRun(id, n, b, end, last)
			hits += int(next - b)
			b = next
			continue
		}
		// Blocks b..e-1 are missing. Inserting each after an eviction
		// leaves the same set as evicting for all of them first: only
		// when there are more than the capacity do the evictions reach
		// the range's own blocks, and then only its last cap survive.
		e := b + 1
		if b < last {
			e = c.missingEnd(t, id, b, last)
		}
		from := max(b, e-int64(c.cap))
		if over := c.n + int(e-from) - c.cap; over > 0 {
			c.evict(over)
		}
		c.appendRun(id, from, e-from)
		b = e
	}
	c.noteHead()
	return hits
}

// touchRun promotes the blocks from b through last, or through the end
// of run n that holds them, and returns the block after them. Blocks
// that are the head run's last already stay where they are.
func (c *Blocks) touchRun(id, n int32, b, end, last int64) int64 {
	stop := min(end, last+1)
	if n != c.head || end > stop {
		c.promote(id, n, b, stop-b)
	}
	return stop
}

// atHead reports whether blocks first..last of file id, at least one,
// are the head run's last blocks, so that touching them changes
// nothing: the commonest call, which then reads no block table or run.
func (c *Blocks) atHead(id int32, first, last int64) bool {
	return id == c.mruFile && last+1 == c.mruEnd && first >= c.mruFirst && first <= last
}

// noteHead records the head run for atHead.
func (c *Blocks) noteHead() {
	if c.head == 0 {
		c.mruFile = -1
		return
	}
	nd := c.node(c.head)
	c.mruFile, c.mruFirst, c.mruEnd = nd.file, int64(nd.first), nd.end()
}

// find returns the run holding block b of file id, t, and the block
// after that run's last; it returns 0 if b is not cached. The slot of a
// block not cached may name any run, even a live one, so the run's
// range decides. That is exact because a run covers only cached blocks
// and a block's slot is set whenever it joins a run.
func (c *Blocks) find(t *table, id int32, b int64) (n int32, end int64) {
	p := uint64(b>>tablePageShift - t.base)
	if p >= uint64(len(t.pages)) || t.pages[p].slots == nil {
		return 0, 0
	}
	if n = t.pages[p].slots[b&tablePageMask]; n == 0 {
		return 0, 0
	}
	if !c.holds(n, id, b) {
		return 0, 0
	}
	return n, c.node(n).end()
}

// holds reports whether run n holds block b of file id.
func (c *Blocks) holds(n, id int32, b int64) bool {
	nd := c.node(n)
	return nd.file == id && int64(nd.first) <= b && b < nd.end()
}

// missingEnd returns the first cached block of file id, t, in
// (b, last], or last+1 if none is; block b is not cached. A page that
// holds no cached block is passed with one directory lookup.
func (c *Blocks) missingEnd(t *table, id int32, b, last int64) int64 {
	for b++; b <= last; {
		pageEnd := (b | tablePageMask) + 1
		p := uint64(b>>tablePageShift - t.base)
		if p >= uint64(len(t.pages)) || t.pages[p].slots == nil {
			b = pageEnd
			continue
		}
		s := t.pages[p].slots
		for end := min(pageEnd, last+1); b < end; b++ {
			if n := s[b&tablePageMask]; n != 0 && c.holds(n, id, b) {
				return b
			}
		}
	}
	return last + 1
}

// cover grows t's directory to cover table page p.
func (t *table) cover(p int64) {
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
	case p-t.base >= int64(len(t.pages)):
		t.pages = append(t.pages, make([]tableRef, int(p-t.base)+1-len(t.pages))...)
	}
}

// add points the table slots of blocks [first, first+count) of file id,
// none of them cached, at run n, taking a table page from the free list
// (or allocating one) for a range that holds no cached block yet.
func (c *Blocks) add(id int32, first, count int64, n int32) {
	t := &c.tables[id]
	for count > 0 {
		p := first >> tablePageShift
		i := p - t.base
		if uint64(i) >= uint64(len(t.pages)) {
			t.cover(p)
			i = p - t.base
		}
		r := &t.pages[i]
		if r.slots == nil {
			r.slots = c.newPage()
			t.held++
		}
		lo := first & tablePageMask
		k := min(count, tablePageSize-lo)
		s := r.slots[lo : lo+k]
		for j := range s {
			s[j] = n
		}
		r.live += int32(k)
		first += k
		count -= k
	}
}

// forget takes blocks [first, first+count) of file id, evicted, out of
// their table pages' live counts, and returns each page whose last
// cached block they were, zeroed, to the free list. It leaves their
// slots as they are (see find).
func (c *Blocks) forget(id int32, first, count int64) {
	t := &c.tables[id]
	for end := first + count; first < end; {
		k := min(end, (first|tablePageMask)+1) - first
		c.unref(t, first>>tablePageShift, k)
		first += k
	}
}

// unref takes k evicted blocks out of the live count of t's table page
// p, freeing the page when they were its last, and resetting t's
// directory when that page was the file's last.
func (c *Blocks) unref(t *table, p, k int64) {
	r := &t.pages[p-t.base]
	if r.live -= int32(k); r.live == 0 {
		*r.slots = tablePage{}
		c.freePages = append(c.freePages, r.slots)
		r.slots = nil
		if t.held--; t.held == 0 {
			t.reset()
		}
	}
}

// relabel points the table slots of blocks [first, first+count) of
// file id, all cached, at run n.
func (c *Blocks) relabel(id int32, first, count int64, n int32) {
	t := &c.tables[id]
	for count > 0 {
		r := &t.pages[first>>tablePageShift-t.base]
		lo := first & tablePageMask
		k := min(count, tablePageSize-lo)
		s := r.slots[lo : lo+k]
		for j := range s {
			s[j] = n
		}
		first += k
		count -= k
	}
}

// newPage takes a zeroed table page from the free list, else allocates
// one.
func (c *Blocks) newPage() *tablePage {
	if k := len(c.freePages); k > 0 {
		pg := c.freePages[k-1]
		c.freePages = c.freePages[:k-1]
		return pg
	}
	return new(tablePage)
}

// appendRun caches blocks [first, first+count) of file id, none of
// them cached, at the most recently used end: it extends the head run
// when that ends at first, and starts a run otherwise.
func (c *Blocks) appendRun(id int32, first, count int64) {
	n := c.head
	if n != 0 && c.extends(n, id, first) {
		c.node(n).count += int32(count)
	} else {
		n = c.alloc()
		nd := c.node(n)
		nd.file, nd.first, nd.count = id, uint32(first), int32(count)
		c.pushFront(n)
	}
	c.n += int(count)
	c.add(id, first, count, n)
}

// extends reports whether run n is of file id and ends at block b.
func (c *Blocks) extends(n, id int32, b int64) bool {
	nd := c.node(n)
	return nd.file == id && nd.end() == b
}

// evict drops the k least recently used blocks, taking them off the
// front of the tail run and freeing each run it empties; the freelist
// hands the last of them to the insert that follows.
func (c *Blocks) evict(k int) {
	for k > 0 {
		n := c.tail
		nd := c.node(n)
		take := min(k, int(nd.count))
		if first := int64(nd.first); first&tablePageMask+int64(take) <= tablePageSize {
			// One table page, the common case: forget without its loop.
			c.unref(&c.tables[nd.file], first>>tablePageShift, int64(take))
		} else {
			c.forget(nd.file, first, int64(take))
		}
		nd.first += uint32(take)
		nd.count -= int32(take)
		c.n -= take
		k -= take
		if nd.count == 0 {
			c.unlink(n)
			c.recycle(n)
		}
	}
}

// promote makes blocks [b, b+m) of file id, all held by run n, the
// most recently used, in ascending order; the callers leave alone
// blocks that are the head run's last already. They join the head run
// when it ends at b; otherwise they become a run of their own. What
// remains of n, at most a piece before them and one after, keeps n's
// place in the recency order. Of the pieces that need a run (those left
// behind, and the moved blocks unless they join the head), the largest
// keeps n and the others take fresh runs, relabeling their blocks.
func (c *Blocks) promote(id int32, n int32, b, m int64) {
	nd := c.node(n)
	first := int64(nd.first)
	lo, hi := b-first, nd.end()-b-m
	h := c.head
	hd := c.node(h)
	join := hd.file == id && hd.end() == b // h != n: n's end is past b
	if !join && m > max(lo, hi) {
		// n moves with the blocks; what stays takes fresh runs in its
		// place.
		newer, older := nd.prev, nd.next
		c.unlink(n)
		if hi > 0 {
			p := c.fresh(id, b+m, hi)
			c.link(p, newer, older)
			newer = p
		}
		if lo > 0 {
			c.link(c.fresh(id, first, lo), newer, older)
		}
		nd.first, nd.count = uint32(b), int32(m)
		c.pushFront(n)
		return
	}
	// n keeps the larger piece left behind, in place; the other, if
	// any, takes a fresh run beside it.
	switch {
	case lo == 0 && hi == 0:
		c.unlink(n)
		c.recycle(n)
	case hi == 0:
		nd.count = int32(lo)
	case lo == 0:
		nd.first, nd.count = uint32(b+m), int32(hi)
	case lo >= hi:
		nd.count = int32(lo)
		newer := nd.prev
		c.link(c.fresh(id, b+m, hi), newer, n)
	default:
		nd.first, nd.count = uint32(b+m), int32(hi)
		older := nd.next
		c.link(c.fresh(id, first, lo), n, older)
	}
	if join {
		c.relabel(id, b, m, h)
		hd.count += int32(m)
	} else {
		c.pushFront(c.fresh(id, b, m))
	}
}

// fresh returns a new run for blocks [first, first+count) of file id,
// cached already, and relabels them to it.
func (c *Blocks) fresh(id int32, first, count int64) int32 {
	n := c.alloc()
	nd := c.node(n)
	nd.file, nd.first, nd.count = id, uint32(first), int32(count)
	c.relabel(id, first, count, n)
	return n
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
	// An ascending walk meets each run first at its first block and
	// drops it; the rest of its slots then name a recycled run, which
	// holds nothing.
	for i := range t.pages {
		r := &t.pages[i]
		if r.slots == nil {
			continue
		}
		base := (t.base + int64(i)) << tablePageShift
		for j, n := range r.slots {
			if n != 0 && c.holds(n, id, base+int64(j)) {
				c.n -= int(c.node(n).count)
				c.unlink(n)
				c.recycle(n)
			}
		}
		*r.slots = tablePage{}
		c.freePages = append(c.freePages, r.slots)
		*r = tableRef{}
	}
	t.reset()
	c.noteHead()
	delete(c.files, file)
	c.freeFiles = append(c.freeFiles, id)
}

func (c *Blocks) node(n int32) *run {
	return &c.nodes[n>>nodePageShift][n&nodePageMask]
}

// alloc takes a run from the freelist, else the next unused slab
// slot, allocating that slot's page on first use.
func (c *Blocks) alloc() int32 {
	if n := c.free; n != 0 {
		c.free = c.node(n).next
		return n
	}
	n := c.used
	if int(n>>nodePageShift) == len(c.nodes) {
		c.nodes = append(c.nodes, new([nodePageSize]run))
	}
	c.used++
	return n
}

func (c *Blocks) recycle(n int32) {
	*c.node(n) = run{next: c.free}
	c.free = n
}

// link puts run n between newer and older, 0 standing for the list's
// ends.
func (c *Blocks) link(n, newer, older int32) {
	nd := c.node(n)
	nd.prev, nd.next = newer, older
	if newer != 0 {
		c.node(newer).next = n
	} else {
		c.head = n
	}
	if older != 0 {
		c.node(older).prev = n
	} else {
		c.tail = n
	}
}

// pushFront links run n in as the most recently used.
func (c *Blocks) pushFront(n int32) {
	head := c.head
	nd := c.node(n)
	nd.prev, nd.next = 0, head
	if head != 0 {
		c.node(head).prev = n
	} else {
		c.tail = n
	}
	c.head = n
}

func (c *Blocks) unlink(n int32) {
	nd := c.node(n)
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
