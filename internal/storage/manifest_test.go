package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"vmgrid/internal/chunk"
	"vmgrid/internal/sim"
)

// refManifests is the store's file and manifest bookkeeping as it stood
// with one size map and one map of key slices, each re-stored on every
// chunk update. It mints from its own plane, which issues the same key
// sequence as the store's, so the two must agree key for key.
type refManifests struct {
	plane  *chunk.Plane
	cache  *chunk.Cache
	files  map[string]int64
	chunks map[string][]chunk.Key
}

func newRefManifests(cb int64) *refManifests {
	p := chunk.NewPlane(chunk.Config{ChunkBytes: cb})
	return &refManifests{plane: p, cache: p.CacheFor("ref"),
		files: map[string]int64{}, chunks: map[string][]chunk.Key{}}
}

func (r *refManifests) create(name string, size int64) {
	r.files[name] = size
	keys := make([]chunk.Key, r.plane.Count(size))
	for i := range keys {
		_, n := r.plane.Span(size, i)
		keys[i] = r.plane.Mint()
		r.cache.Add(keys[i], n)
	}
	r.chunks[name] = keys
}

func (r *refManifests) createWithChunks(name string, size int64, keys []chunk.Key) {
	r.files[name] = size
	adopted := append([]chunk.Key(nil), keys...)
	for i, k := range adopted {
		_, n := r.plane.Span(size, i)
		r.cache.Add(k, n)
	}
	r.chunks[name] = adopted
}

func (r *refManifests) write(name string, off, n int64) {
	if end := off + n; end > r.files[name] {
		r.files[name] = end
	}
	if n <= 0 {
		return
	}
	size := r.files[name]
	total := r.plane.Count(size)
	keys := r.chunks[name]
	for len(keys) < total {
		keys = append(keys, 0)
	}
	cb := r.plane.ChunkBytes()
	last := int((off + n - 1) / cb)
	for i := int(off / cb); i <= last && i < total; i++ {
		_, cn := r.plane.Span(size, i)
		keys[i] = r.plane.Mint()
		r.cache.Add(keys[i], cn)
	}
	r.chunks[name] = keys
}

func (r *refManifests) adopt(name string, i int, key chunk.Key, off, n int64) {
	if end := off + n; end > r.files[name] {
		r.files[name] = end
	}
	keys := r.chunks[name]
	for len(keys) <= i {
		keys = append(keys, 0)
	}
	keys[i] = key
	r.chunks[name] = keys
	r.cache.Add(key, n)
}

func (r *refManifests) copy(src, dst string) {
	r.files[dst] = r.files[src]
	r.chunks[dst] = append([]chunk.Key(nil), r.chunks[src]...)
}

func (r *refManifests) delete(name string) {
	delete(r.files, name)
	delete(r.chunks, name)
}

// TestManifestsMatchMapOfSlices drives a store and the map-of-slices
// reference through the same random create, guest write (touch),
// chunk adoption, copy and delete calls, over several seeds, and after
// every call requires the same files, sizes, ChunkKeys and node-cache
// contents.
func TestManifestsMatchMapOfSlices(t *testing.T) {
	const cb = 1000
	names := []string{"a", "b", "c", "d", "e", "f"}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := sim.NewKernel(uint64(seed))
		p := chunk.NewPlane(chunk.Config{ChunkBytes: cb})
		s := chunkStore(t, k, p, "n1")
		ref := newRefManifests(cb)
		var seen []chunk.Key
		pickKey := func() chunk.Key {
			if len(seen) == 0 || rng.Intn(8) == 0 {
				return chunk.Key(rng.Uint64())
			}
			return seen[rng.Intn(len(seen))]
		}
		for op := 0; op < 3000; op++ {
			name := names[rng.Intn(len(names))]
			other := names[rng.Intn(len(names))]
			var desc string
			switch exists := s.Has(name); {
			case !exists && rng.Intn(4) == 0:
				size := int64(rng.Intn(5 * cb))
				keys := make([]chunk.Key, p.Count(size))
				for i := range keys {
					keys[i] = pickKey()
				}
				desc = fmt.Sprintf("CreateWithChunks(%s, %d)", name, size)
				if err := s.CreateWithChunks(name, size, keys); err != nil {
					t.Fatal(err)
				}
				ref.createWithChunks(name, size, keys)
			case !exists:
				size := int64(rng.Intn(5 * cb))
				desc = fmt.Sprintf("Create(%s, %d)", name, size)
				if err := s.Create(name, size); err != nil {
					t.Fatal(err)
				}
				ref.create(name, size)
			default:
				switch rng.Intn(5) {
				case 0:
					off, n := int64(rng.Intn(6*cb)), int64(rng.Intn(2*cb))
					desc = fmt.Sprintf("Write(%s, %d, %d)", name, off, n)
					f, err := s.Open(name)
					if err != nil {
						t.Fatal(err)
					}
					f.Write(off, n, nil)
					ref.write(name, off, n)
				case 1, 2:
					i := rng.Intn(6)
					key := pickKey()
					off := int64(i) * cb
					n := int64(1 + rng.Intn(cb))
					desc = fmt.Sprintf("adopt(%s, %d)", name, i)
					if rng.Intn(2) == 0 {
						s.AdoptChunk(name, i, key, off, n)
					} else {
						f, err := s.Open(name)
						if err != nil {
							t.Fatal(err)
						}
						f.WriteChunkAs(i, key, off, n, nil)
					}
					ref.adopt(name, i, key, off, n)
				case 3:
					if s.Has(other) {
						continue
					}
					desc = fmt.Sprintf("Copy(%s, %s)", name, other)
					if err := s.Copy(name, other, nil); err != nil {
						t.Fatal(err)
					}
					ref.copy(name, other)
				case 4:
					desc = fmt.Sprintf("Delete(%s)", name)
					if err := s.Delete(name); err != nil {
						t.Fatal(err)
					}
					ref.delete(name)
				}
			}
			k.Run()
			for _, n := range names {
				seen = append(seen, s.ChunkKeys(n)...)
				size, err := s.Size(n)
				wantSize, wantHas := ref.files[n]
				if s.Has(n) != wantHas || (err == nil) != wantHas || size != wantSize {
					t.Fatalf("seed %d op %d after %s: %s has=%v size=%d, want has=%v size=%d",
						seed, op, desc, n, s.Has(n), size, wantHas, wantSize)
				}
				if got, want := s.ChunkKeys(n), ref.chunks[n]; !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d after %s: ChunkKeys(%s) = %v, want %v", seed, op, desc, n, got, want)
				}
			}
			if c := p.CacheFor("n1"); c.Len() != ref.cache.Len() || c.UsedBytes() != ref.cache.UsedBytes() {
				t.Fatalf("seed %d op %d after %s: node cache %d keys / %d bytes, want %d / %d",
					seed, op, desc, c.Len(), c.UsedBytes(), ref.cache.Len(), ref.cache.UsedBytes())
			}
			if len(seen) > 4096 {
				seen = seen[len(seen)-1024:]
			}
		}
	}
}

// TestWriteAfterDeleteDoesNotResurrect: a write arriving through a
// handle after its file was deleted — a staging retry deleting the
// partial copy while the failed attempt's next chunk is still on the
// wire — completes without bringing the name or a manifest back, so
// the retry's Create of the same name succeeds.
func TestWriteAfterDeleteDoesNotResurrect(t *testing.T) {
	for _, withPlane := range []bool{false, true} {
		k := sim.NewKernel(1)
		var s *Store
		if withPlane {
			s = chunkStore(t, k, chunk.NewPlane(chunk.Config{ChunkBytes: 1 << 20}), "n1")
		} else {
			s = newStore(t, k)
		}
		if err := s.Create("ckpt", 0); err != nil {
			t.Fatal(err)
		}
		f, err := s.Open("ckpt")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Delete("ckpt"); err != nil {
			t.Fatal(err)
		}
		landed, want := 0, 1
		f.Write(0, 4096, func() { landed++ })
		if withPlane {
			want++
			f.WriteChunkAs(1, chunk.Key(43), 1<<20, 1<<20, func() { landed++ })
		}
		k.Run()
		if landed != want {
			t.Fatalf("plane=%v: %d of %d writes to the deleted file completed", withPlane, landed, want)
		}
		if s.Has("ckpt") || s.ChunkKeys("ckpt") != nil || f.Size() != 0 {
			t.Fatalf("plane=%v: deleted file came back (has=%v keys=%v size=%d)",
				withPlane, s.Has("ckpt"), s.ChunkKeys("ckpt"), f.Size())
		}
		if err := s.Create("ckpt", 0); err != nil {
			t.Fatalf("plane=%v: re-create after a late write: %v", withPlane, err)
		}
	}
}
