package lru

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

type refBlock struct {
	file  string
	block int64
}

// order appends c's cached blocks to out from least to most recently
// used.
func (c *Blocks) order(out []refBlock) []refBlock {
	names := make([]string, len(c.tables))
	for name, id := range c.files {
		names[id] = name
	}
	for n := c.nodes[0].prev; n != 0; n = c.nodes[n].prev {
		out = append(out, refBlock{names[c.nodes[n].file], c.nodes[n].block})
	}
	return out
}

// TestBlocksMatchCache drives Blocks and a capped Cache of (file, block)
// keys through the same random touches, inserts and releases and
// requires the same answers, size and recency order after every call.
func TestBlocksMatchCache(t *testing.T) {
	files := []string{"a", "b", "c", "d"}
	for _, capacity := range []int{0, 1, 3, 17, 1000} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("cap=%d/seed=%d", capacity, seed), func(t *testing.T) {
				got := NewBlocks(capacity)
				want := New[refBlock](capacity)
				insert := func(k refBlock) {
					if capacity < 1 || want.Touch(k) {
						return
					}
					for want.Len() >= capacity {
						want.EvictOldest()
					}
					want.Insert(k)
				}
				var g, w []refBlock
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 5000; i++ {
					file := files[rng.Intn(len(files))]
					id := got.Intern(file)
					k := refBlock{file, rng.Int63n(64)}
					switch op := rng.Intn(20); {
					case op < 9:
						if g, w := got.Touch(id, k.block), want.Touch(k); g != w {
							t.Fatalf("op %d: Touch(%v) = %v, want %v", i, k, g, w)
						}
					case op < 19:
						got.Insert(id, k.block)
						insert(k)
					default:
						got.Release(file)
						want.Filter(func(r refBlock) bool { return r.file == file })
					}
					g, w = got.order(g[:0]), w[:0]
					want.Filter(func(r refBlock) bool {
						w = append(w, r)
						return false
					})
					if got.Len() != want.Len() || !slices.Equal(g, w) {
						t.Fatalf("op %d: %d blocks %v, want %d %v", i, got.Len(), g, want.Len(), w)
					}
				}
			})
		}
	}
}

// TestBlocksReleaseReusesIDs: a released name frees its id, the next
// new name takes it, and a released-then-reinterned name starts empty,
// so files created and deleted forever keep the index bounded.
func TestBlocksReleaseReusesIDs(t *testing.T) {
	c := NewBlocks(16)
	a, b := c.Intern("a"), c.Intern("b")
	for blk := int64(0); blk < 4; blk++ {
		c.Insert(a, blk)
	}
	c.Insert(b, 0)
	c.Release("a")
	if c.Len() != 1 {
		t.Fatalf("Len = %d after releasing a, want 1", c.Len())
	}
	if id := c.Intern("c"); id != a {
		t.Errorf("c got id %d, want a's released id %d", id, a)
	}
	if c.Touch(a, 0) {
		t.Error("c inherited a's cached block")
	}
	c.Intern("a")
	if len(c.files) != 3 || len(c.tables) != 3 {
		t.Fatalf("%d interned names over %d ids, want 3 over 3", len(c.files), len(c.tables))
	}
	for _, f := range []string{"a", "b", "c"} {
		c.Release(f)
	}
	if c.Len() != 0 || len(c.files) != 0 {
		t.Fatalf("%d blocks over %d names after releasing all", c.Len(), len(c.files))
	}
}
