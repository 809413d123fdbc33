package storage

import (
	"fmt"
	"math/bits"
)

// ImageInfo describes an archived virtual machine image: a base virtual
// disk plus, for "warm" images, a saved memory snapshot that lets the
// guest resume from a post-boot state (the paper's VM-restore path).
type ImageInfo struct {
	// Name is the catalog key, e.g. "rh72-base".
	Name string
	// OS describes the installed guest system, e.g. "redhat-7.2".
	OS string
	// DiskBytes is the virtual disk size.
	DiskBytes int64
	// MemBytes is the saved memory image size; zero for cold images.
	MemBytes int64
}

// Warm reports whether the image carries a memory snapshot to restore.
func (i ImageInfo) Warm() bool { return i.MemBytes > 0 }

// TotalBytes returns the full state size (disk plus memory image).
func (i ImageInfo) TotalBytes() int64 { return i.DiskBytes + i.MemBytes }

// DiskFile returns the store file name holding the virtual disk.
func (i ImageInfo) DiskFile() string { return i.Name + ".disk" }

// MemFile returns the store file name holding the memory snapshot.
func (i ImageInfo) MemFile() string { return i.Name + ".mem" }

// Validate reports whether the metadata is usable.
func (i ImageInfo) Validate() error {
	if i.Name == "" {
		return fmt.Errorf("storage: image without a name")
	}
	if i.DiskBytes <= 0 {
		return fmt.Errorf("storage: image %q disk size %d", i.Name, i.DiskBytes)
	}
	if i.MemBytes < 0 {
		return fmt.Errorf("storage: image %q memory size %d", i.Name, i.MemBytes)
	}
	return nil
}

// InstallImage materializes an image's files into a store (metadata-only:
// the archive is assumed to already be there, as on the paper's image
// servers).
func InstallImage(s *Store, info ImageInfo) error {
	if err := info.Validate(); err != nil {
		return err
	}
	if err := s.Create(info.DiskFile(), info.DiskBytes); err != nil {
		return err
	}
	if info.Warm() {
		if err := s.Create(info.MemFile(), info.MemBytes); err != nil {
			return err
		}
	}
	return nil
}

// cowPage is the COW granularity. VMware REDO logs operate on 64 KB
// grains; we match the buffer-cache page for simplicity.
const cowPage int64 = 64 * 1024

// CowDisk is a non-persistent virtual disk: reads come from a (possibly
// remote, read-only, shared) base image, writes go to a local difference
// file. Discarding the diff discards the session — exactly VMware's
// non-persistent mode, which Table 2 shows is what makes dynamic VM
// instantiation cheap.
//
// The written pages are a bitmap grown on write, and reads run through
// freelisted completion state, so a disk at steady state allocates
// nothing per read. Offsets must be non-negative.
type CowDisk struct {
	base    Backend
	diff    Backend
	written []uint64 // bit pg%64 of word pg/64 set once page pg is in the diff
	pages   int64    // bits set in written

	freeReads *cowRead
}

var _ Backend = (*CowDisk)(nil)

// NewCowDisk layers a local diff file over a base image backend.
func NewCowDisk(base, diff Backend) *CowDisk {
	return &CowDisk{base: base, diff: diff}
}

// Name identifies the disk for diagnostics.
func (c *CowDisk) Name() string { return c.base.Name() + "+cow" }

// Size returns the base image size.
func (c *CowDisk) Size() int64 { return c.base.Size() }

// DiffBytes returns how much data has been redirected to the diff file.
func (c *CowDisk) DiffBytes() int64 { return c.pages * cowPage }

// WrittenPages returns the COW page indices redirected so far, in
// ascending order — the metadata that must travel with the diff file
// when a session migrates.
func (c *CowDisk) WrittenPages() []int64 {
	out := make([]int64, 0, c.pages)
	for w, word := range c.written {
		for ; word != 0; word &= word - 1 {
			out = append(out, int64(w)*64+int64(bits.TrailingZeros64(word)))
		}
	}
	return out
}

// MarkWritten replays COW metadata onto a fresh disk (migration arrival
// path): reads of these pages will come from the diff backend.
func (c *CowDisk) MarkWritten(pages []int64) {
	for _, pg := range pages {
		c.mark(pg)
	}
}

func (c *CowDisk) isWritten(pg int64) bool {
	w := uint64(pg / 64)
	return w < uint64(len(c.written)) && c.written[w]&(1<<(pg%64)) != 0
}

func (c *CowDisk) mark(pg int64) {
	w := int(pg / 64)
	if w >= len(c.written) {
		c.written = append(c.written, make([]uint64, w+1-len(c.written))...)
	}
	if bit := uint64(1) << (pg % 64); c.written[w]&bit == 0 {
		c.written[w] |= bit
		c.pages++
	}
}

// Read fetches each page from the diff if written, else the base.
// For simplicity a read spanning both sources is charged to each source
// for the bytes it owns, completing when both halves arrive.
func (c *CowDisk) Read(off, size int64, done func()) { c.read(off, size, done, false) }

// ReadSequential implements Backend.
func (c *CowDisk) ReadSequential(off, size int64, done func()) { c.read(off, size, done, true) }

// cowRead is one read's completion state, pooled per disk. completeFn
// is complete, bound once.
type cowRead struct {
	c           *CowDisk
	done        func()
	outstanding int
	completeFn  func()
	nextFree    *cowRead
}

func (o *cowRead) complete() {
	o.outstanding--
	if o.outstanding > 0 {
		return
	}
	c, done := o.c, o.done
	o.done = nil
	o.nextFree = c.freeReads
	c.freeReads = o
	if done != nil {
		done()
	}
}

func (c *CowDisk) read(off, size int64, done func(), sequential bool) {
	if size <= 0 {
		size = 1
	}
	first := off / cowPage
	last := (off + size - 1) / cowPage
	var diffBytes, baseBytes int64
	for pg := first; pg <= last; pg++ {
		if c.isWritten(pg) {
			diffBytes += cowPage
		} else {
			baseBytes += cowPage
		}
	}
	o := c.freeReads
	if o == nil {
		o = &cowRead{c: c}
		o.completeFn = o.complete
	} else {
		c.freeReads = o.nextFree
		o.nextFree = nil
	}
	o.done = done
	o.outstanding = 0
	if diffBytes > 0 {
		o.outstanding++
	}
	if baseBytes > 0 {
		o.outstanding++
	}
	if diffBytes > 0 {
		issueRead(c.diff, off, diffBytes, o.completeFn, sequential)
	}
	if baseBytes > 0 {
		issueRead(c.base, off, baseBytes, o.completeFn, sequential)
	}
}

func issueRead(b Backend, off, n int64, done func(), sequential bool) {
	if sequential {
		b.ReadSequential(off, n, done)
		return
	}
	b.Read(off, n, done)
}

// Write sends every page to the diff file and marks it copied-on-write.
func (c *CowDisk) Write(off, size int64, done func()) {
	if size <= 0 {
		size = 1
	}
	first := off / cowPage
	last := (off + size - 1) / cowPage
	for pg := first; pg <= last; pg++ {
		c.mark(pg)
	}
	c.diff.Write(off, size, done)
}
