package storage

import (
	"math/rand"
	"slices"
	"testing"
)

// pendingBackend charges each call's bytes and queues its completion,
// so reads stay in flight until the test delivers them.
type pendingBackend struct {
	name    string
	read    int64 // bytes charged to Read and ReadSequential
	pending *[]func()
}

func (b *pendingBackend) Name() string { return b.name }
func (b *pendingBackend) Size() int64  { return 1 << 40 }
func (b *pendingBackend) Read(off, size int64, done func()) {
	b.read += size
	*b.pending = append(*b.pending, done)
}
func (b *pendingBackend) ReadSequential(off, size int64, done func()) { b.Read(off, size, done) }
func (b *pendingBackend) Write(off, size int64, done func()) {
	*b.pending = append(*b.pending, done)
}

// refCow is CowDisk's former page set, a map, with its per-page charge:
// a read is charged cowPage per page to whichever side owns it.
type refCow map[int64]bool

func (r refCow) write(off, size int64) {
	if size <= 0 {
		size = 1
	}
	for pg := off / cowPage; pg <= (off+size-1)/cowPage; pg++ {
		r[pg] = true
	}
}

func (r refCow) read(off, size int64) (diff, base int64) {
	if size <= 0 {
		size = 1
	}
	for pg := off / cowPage; pg <= (off+size-1)/cowPage; pg++ {
		if r[pg] {
			diff += cowPage
		} else {
			base += cowPage
		}
	}
	return diff, base
}

func (r refCow) pages() []int64 {
	out := make([]int64, 0, len(r))
	for pg := range r {
		out = append(out, pg)
	}
	slices.Sort(out)
	return out
}

// TestCowDiskMatchesMapReference drives CowDisk and a map-based page set
// through the same random writes, replays and reads, with reads left in
// flight and completed out of order. Every read must charge the same
// bytes to the base and the diff as the reference and complete exactly
// once; DiffBytes must match and WrittenPages must list the reference's
// pages in ascending order.
func TestCowDiskMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var pending []func()
		base := &pendingBackend{name: "base", pending: &pending}
		diff := &pendingBackend{name: "diff", pending: &pending}
		cow := NewCowDisk(base, diff)
		ref := refCow{}
		var reads, completed int
		span := func() (off, size int64) {
			off = rng.Int63n(300 * cowPage)
			if rng.Intn(8) == 0 {
				off += 1 << 30 // far past the pages written so far
			}
			return off, rng.Int63n(6*cowPage) - cowPage/2 // some sizes <= 0
		}
		for i := 0; i < 3000; i++ {
			switch op := rng.Intn(10); {
			case op < 3:
				off, size := span()
				cow.Write(off, size, nil)
				ref.write(off, size)
			case op == 3:
				pgs := make([]int64, rng.Intn(4))
				for j := range pgs {
					pgs[j] = rng.Int63n(400)
				}
				cow.MarkWritten(pgs)
				for _, pg := range pgs {
					ref[pg] = true
				}
			case op < 9:
				off, size := span()
				d0, b0 := diff.read, base.read
				wantDiff, wantBase := ref.read(off, size)
				reads++
				if rng.Intn(2) == 0 {
					cow.Read(off, size, func() { completed++ })
				} else {
					cow.ReadSequential(off, size, func() { completed++ })
				}
				if d, b := diff.read-d0, base.read-b0; d != wantDiff || b != wantBase {
					t.Fatalf("seed %d op %d: read(%d, %d) charged diff %d base %d, want %d and %d",
						seed, i, off, size, d, b, wantDiff, wantBase)
				}
			default:
				rng.Shuffle(len(pending), func(a, b int) { pending[a], pending[b] = pending[b], pending[a] })
				n := rng.Intn(len(pending) + 1)
				for _, done := range pending[:n] {
					if done != nil {
						done()
					}
				}
				pending = append(pending[:0], pending[n:]...)
			}
			if cow.DiffBytes() != int64(len(ref))*cowPage {
				t.Fatalf("seed %d op %d: DiffBytes %d, want %d", seed, i, cow.DiffBytes(), int64(len(ref))*cowPage)
			}
		}
		for _, done := range pending {
			if done != nil {
				done()
			}
		}
		if completed != reads {
			t.Errorf("seed %d: %d of %d reads completed", seed, completed, reads)
		}
		if got, want := cow.WrittenPages(), ref.pages(); !slices.Equal(got, want) {
			t.Errorf("seed %d: WrittenPages = %v, want %v", seed, got, want)
		}
	}
}

// instantBackend completes every call before returning.
type instantBackend struct{}

func (instantBackend) Name() string                                { return "instant" }
func (instantBackend) Size() int64                                 { return 1 << 40 }
func (instantBackend) Read(off, size int64, done func())           { done() }
func (instantBackend) ReadSequential(off, size int64, done func()) { done() }
func (instantBackend) Write(off, size int64, done func())          { done() }

// BenchmarkCowDiskRead reads 256 KiB spans that straddle written and
// unwritten pages, so each read splits between the diff and the base.
// At steady state it allocates nothing.
func BenchmarkCowDiskRead(b *testing.B) {
	cow := NewCowDisk(instantBackend{}, instantBackend{})
	for pg := int64(0); pg < 1024; pg += 3 {
		cow.MarkWritten([]int64{pg})
	}
	done := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cow.ReadSequential(int64(i%256)*4*cowPage, 4*cowPage, done)
	}
}
