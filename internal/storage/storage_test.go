package storage

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"vmgrid/internal/hostos"
	"vmgrid/internal/hw"
	"vmgrid/internal/sim"
)

func newStore(t *testing.T, k *sim.Kernel) *Store {
	t.Helper()
	h, err := hostos.New(k, hw.ReferenceMachine("n1"))
	if err != nil {
		t.Fatal(err)
	}
	return NewStore(h)
}

func TestCreateHasSizeDelete(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(t, k)
	if err := s.Create("a", 100); err != nil {
		t.Fatal(err)
	}
	if !s.Has("a") {
		t.Error("Has(a) = false")
	}
	sz, err := s.Size("a")
	if err != nil || sz != 100 {
		t.Errorf("Size = %d, %v", sz, err)
	}
	if err := s.Create("a", 1); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate create = %v, want ErrExists", err)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if s.Has("a") {
		t.Error("Has(a) after delete")
	}
	if err := s.Delete("a"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete = %v, want ErrNotFound", err)
	}
	if _, err := s.Size("a"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Size of deleted = %v, want ErrNotFound", err)
	}
}

func TestCreateValidation(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(t, k)
	if err := s.Create("", 10); err == nil {
		t.Error("empty name accepted")
	}
	if err := s.Create("neg", -1); err == nil {
		t.Error("negative size accepted")
	}
}

func TestFilesSorted(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(t, k)
	for _, n := range []string{"c", "a", "b"} {
		if err := s.Create(n, 1); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Files()
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Files() = %v", got)
		}
	}
}

func TestOpenMissing(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(t, k)
	if _, err := s.Open("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Open missing = %v", err)
	}
	f, err := s.OpenOrCreate("fresh")
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 0 {
		t.Errorf("fresh file size = %d", f.Size())
	}
}

func TestLocalFileWriteGrows(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(t, k)
	f, err := s.OpenOrCreate("log")
	if err != nil {
		t.Fatal(err)
	}
	f.Write(0, 1000, nil)
	f.Write(5000, 1000, nil)
	k.Run()
	if f.Size() != 6000 {
		t.Errorf("Size = %d, want 6000", f.Size())
	}
}

func TestCopyDuration(t *testing.T) {
	// Copying a 64 MB file chunk-by-chunk on the reference disk
	// (seek-charged read + streaming write per 128 KB chunk) should land
	// in the ~10 MB/s regime that dominates Table 2's persistent rows.
	k := sim.NewKernel(1)
	s := newStore(t, k)
	const size = 64 << 20
	if err := s.Create("src", size); err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time = -1
	if err := s.Copy("src", "dst", func() { doneAt = k.Now() }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if doneAt < 0 {
		t.Fatal("copy did not complete")
	}
	rate := float64(size) / doneAt.Seconds() / 1e6 // MB/s
	if rate < 7 || rate > 16 {
		t.Errorf("copy throughput = %.1f MB/s, want ~10 (same-disk copy)", rate)
	}
	if sz, _ := s.Size("dst"); sz != size {
		t.Errorf("dst size = %d", sz)
	}
}

func TestCopyErrors(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(t, k)
	if err := s.Copy("missing", "x", nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("copy missing src = %v", err)
	}
	if err := s.Create("a", 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("b", 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Copy("a", "b", nil); !errors.Is(err, ErrExists) {
		t.Errorf("copy onto existing = %v", err)
	}
}

func TestCopyWarmsCache(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(t, k)
	const size = 8 << 20
	if err := s.Create("src", size); err != nil {
		t.Fatal(err)
	}
	if err := s.Copy("src", "dst", nil); err != nil {
		t.Fatal(err)
	}
	k.Run()
	// Reading the fresh copy should be nearly free: its pages are
	// resident from the write-through.
	f, err := s.Open("dst")
	if err != nil {
		t.Fatal(err)
	}
	start := k.Now()
	var doneAt sim.Time
	f.Read(0, size, func() { doneAt = k.Now() })
	k.Run()
	if doneAt.Sub(start) > sim.Millisecond {
		t.Errorf("read-after-copy took %v, want cache hit", doneAt.Sub(start))
	}
}

// TestStaleHandleReadsByName: a read through a handle whose file was
// deleted bypasses the buffer cache. The device is charged for the whole
// range, and the read neither hits nor caches any page: not those of a
// file that took the deleted file's released cache id, and not those of
// a file created since under the same name.
func TestStaleHandleReadsByName(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(t, k)
	c := s.Host().Cache()
	disk := s.Host().Disk()
	const pages = 4
	const size = pages * hostos.CachePageSize
	create := func(name string) *LocalFile {
		t.Helper()
		f, err := s.OpenOrCreate(name)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(0, size, nil)
		k.Run()
		return f
	}
	staleRead := func(f *LocalFile, what string) {
		t.Helper()
		hits, cached, moved := c.Hits(), c.CachedBytes(), disk.BytesTransferred()
		f.Read(0, size, nil)
		k.Run()
		if n := c.Hits() - hits; n != 0 {
			t.Errorf("read through the deleted handle hit %d pages of %s, want 0", n, what)
		}
		if n := c.CachedBytes() - cached; n != 0 {
			t.Errorf("read through the deleted handle cached %d bytes, want 0", n)
		}
		if n := disk.BytesTransferred() - moved; n != uint64(size) {
			t.Errorf("read through the deleted handle moved %d device bytes, want %d", n, size)
		}
	}
	stale := create("a")
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if b := create("b"); b.file.id != stale.file.id {
		t.Fatalf("b has cache id %d, want a's released id %d", b.file.id, stale.file.id)
	}
	staleRead(stale, "b")
	create("a")
	staleRead(stale, "the recreated a")
}

func TestImageInfo(t *testing.T) {
	img := ImageInfo{Name: "rh72", OS: "redhat-7.2", DiskBytes: 2 * hw.GB, MemBytes: 128 * hw.MB}
	if err := img.Validate(); err != nil {
		t.Fatal(err)
	}
	if !img.Warm() {
		t.Error("image with memory snapshot must be warm")
	}
	if img.TotalBytes() != 2*hw.GB+128*hw.MB {
		t.Errorf("TotalBytes = %d", img.TotalBytes())
	}
	if img.DiskFile() != "rh72.disk" || img.MemFile() != "rh72.mem" {
		t.Errorf("file names: %s, %s", img.DiskFile(), img.MemFile())
	}

	cold := ImageInfo{Name: "cold", OS: "rh71", DiskBytes: hw.GB}
	if cold.Warm() {
		t.Error("cold image reported warm")
	}
	for _, bad := range []ImageInfo{
		{OS: "x", DiskBytes: 1},
		{Name: "x", DiskBytes: 0},
		{Name: "x", DiskBytes: 1, MemBytes: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", bad)
		}
	}
}

func TestInstallImage(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(t, k)
	img := ImageInfo{Name: "rh72", OS: "redhat-7.2", DiskBytes: 1 << 30, MemBytes: 128 << 20}
	if err := InstallImage(s, img); err != nil {
		t.Fatal(err)
	}
	if !s.Has("rh72.disk") || !s.Has("rh72.mem") {
		t.Error("image files missing after install")
	}
	if err := InstallImage(s, img); !errors.Is(err, ErrExists) {
		t.Errorf("double install = %v", err)
	}
	cold := ImageInfo{Name: "cold", OS: "rh71", DiskBytes: 1 << 20}
	if err := InstallImage(s, cold); err != nil {
		t.Fatal(err)
	}
	if s.Has("cold.mem") {
		t.Error("cold image grew a memory file")
	}
}

func TestCowDiskReadsBaseUntilWritten(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(t, k)
	if err := s.Create("base.disk", 1<<30); err != nil {
		t.Fatal(err)
	}
	base, err := s.Open("base.disk")
	if err != nil {
		t.Fatal(err)
	}
	diff, err := s.OpenOrCreate("vm1.cow")
	if err != nil {
		t.Fatal(err)
	}
	cow := NewCowDisk(base, diff)
	if cow.Size() != 1<<30 {
		t.Errorf("Size = %d", cow.Size())
	}
	if cow.DiffBytes() != 0 {
		t.Errorf("fresh cow DiffBytes = %d", cow.DiffBytes())
	}

	done := false
	cow.Read(0, 4096, func() { done = true })
	k.Run()
	if !done {
		t.Fatal("read did not complete")
	}

	cow.Write(0, 4096, nil)
	k.Run()
	if cow.DiffBytes() == 0 {
		t.Error("write did not mark COW pages")
	}
	// Second write to the same page must not grow the diff again.
	before := cow.DiffBytes()
	cow.Write(0, 4096, nil)
	k.Run()
	if cow.DiffBytes() != before {
		t.Error("rewrite grew the diff")
	}
}

func TestCowDiskMixedRead(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(t, k)
	if err := s.Create("base.disk", 1<<30); err != nil {
		t.Fatal(err)
	}
	base, _ := s.Open("base.disk")
	diff, _ := s.OpenOrCreate("vm1.cow")
	cow := NewCowDisk(base, diff)
	// Write the first page; then read a span covering written and
	// unwritten pages. The read must complete exactly once.
	cow.Write(0, 64*1024, nil)
	k.Run()
	completions := 0
	cow.Read(0, 256*1024, func() { completions++ })
	k.Run()
	if completions != 1 {
		t.Fatalf("mixed read completed %d times", completions)
	}
}

func TestCowDiskZeroSizeOps(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(t, k)
	if err := s.Create("base.disk", 1<<20); err != nil {
		t.Fatal(err)
	}
	base, _ := s.Open("base.disk")
	diff, _ := s.OpenOrCreate("d.cow")
	cow := NewCowDisk(base, diff)
	done := false
	cow.Read(0, 0, func() { done = true })
	k.Run()
	if !done {
		t.Error("zero-size read never completed")
	}
}

func TestStoresOnDifferentHostsDoNotShareCache(t *testing.T) {
	k := sim.NewKernel(1)
	h1, err := hostos.New(k, hw.ReferenceMachine("h1"))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := hostos.New(k, hw.ReferenceMachine("h2"))
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := NewStore(h1), NewStore(h2)
	if err := s1.Create("img", 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := s2.Create("img", 1<<20); err != nil {
		t.Fatal(err)
	}
	f1, _ := s1.Open("img")
	f2, _ := s2.Open("img")
	f1.Read(0, 1<<20, nil)
	k.Run()
	// h2's read must be a miss even though h1 cached the same name.
	var start = k.Now()
	var doneAt sim.Time
	f2.Read(0, 1<<20, func() { doneAt = k.Now() })
	k.Run()
	if elapsed := doneAt.Sub(start); elapsed < sim.Millisecond {
		t.Errorf("cross-host read finished in %v — caches are leaking", elapsed)
	}
	if math.Abs(float64(h2.Cache().Hits())) > 0 {
		t.Errorf("h2 cache hits = %d, want 0", h2.Cache().Hits())
	}
}

// Property: any CowDisk read completes exactly once, regardless of how
// the written-page set interleaves with the read span.
func TestCowDiskCompletionProperty(t *testing.T) {
	prop := func(writesRaw []uint8, offRaw, sizeRaw uint16) bool {
		k := sim.NewKernel(8)
		h, err := hostos.New(k, hw.ReferenceMachine("n"))
		if err != nil {
			return false
		}
		s := NewStore(h)
		if err := s.Create("base", 64<<20); err != nil {
			return false
		}
		base, _ := s.Open("base")
		diff, _ := s.OpenOrCreate("d.cow")
		cow := NewCowDisk(base, diff)
		for _, w := range writesRaw {
			cow.Write(int64(w)*cowPage, 4096, nil)
		}
		k.Run()
		completions := 0
		off := int64(offRaw) * 4096
		size := int64(sizeRaw%512) * 1024
		cow.Read(off, size, func() { completions++ })
		k.Run()
		return completions == 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: WrittenPages/MarkWritten round-trips the COW metadata.
func TestCowDiskMetadataRoundTrip(t *testing.T) {
	prop := func(pagesRaw []uint8) bool {
		k := sim.NewKernel(9)
		h, err := hostos.New(k, hw.ReferenceMachine("n"))
		if err != nil {
			return false
		}
		s := NewStore(h)
		if err := s.Create("base", 64<<20); err != nil {
			return false
		}
		base, _ := s.Open("base")
		d1, _ := s.OpenOrCreate("a.cow")
		src := NewCowDisk(base, d1)
		want := map[int64]bool{}
		for _, pg := range pagesRaw {
			src.Write(int64(pg)*cowPage, 1, nil)
			want[int64(pg)] = true
		}
		k.Run()

		d2, _ := s.OpenOrCreate("b.cow")
		dst := NewCowDisk(base, d2)
		dst.MarkWritten(src.WrittenPages())
		if dst.DiffBytes() != src.DiffBytes() {
			return false
		}
		got := map[int64]bool{}
		for _, pg := range dst.WrittenPages() {
			got[pg] = true
		}
		if len(got) != len(want) {
			return false
		}
		for pg := range want {
			if !got[pg] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
