package chunk

import "testing"

func TestMintKeysFreshAndNonZero(t *testing.T) {
	p := NewPlane(Config{})
	seen := make(map[Key]bool, 1<<17)
	for i := 0; i < 100000; i++ {
		k := p.Mint()
		if k == 0 {
			t.Fatalf("mint %d returned the reserved zero-chunk key", i)
		}
		if seen[k] {
			t.Fatalf("mint %d repeated key %x — dedup would alias unrelated content", i, k)
		}
		seen[k] = true
	}
}

func TestMintDeterministicAcrossPlanes(t *testing.T) {
	a, b := NewPlane(Config{}), NewPlane(Config{})
	for i := 0; i < 1000; i++ {
		if ka, kb := a.Mint(), b.Mint(); ka != kb {
			t.Fatalf("mint %d differs across fresh planes: %x vs %x", i, ka, kb)
		}
	}
}

func TestCountAndSpan(t *testing.T) {
	p := NewPlane(Config{ChunkBytes: 1000})
	counts := []struct {
		size int64
		want int
	}{{0, 0}, {-5, 0}, {1, 1}, {999, 1}, {1000, 1}, {1001, 2}, {2500, 3}}
	for _, c := range counts {
		if got := p.Count(c.size); got != c.want {
			t.Errorf("Count(%d) = %d, want %d", c.size, got, c.want)
		}
	}
	// Full interior chunk, then the short tail — the extent that bit the
	// staging path when it assumed every chunk was full-size.
	if off, n := p.Span(2500, 0); off != 0 || n != 1000 {
		t.Errorf("Span(2500, 0) = (%d, %d), want (0, 1000)", off, n)
	}
	if off, n := p.Span(2500, 2); off != 2000 || n != 500 {
		t.Errorf("Span(2500, 2) = (%d, %d), want (2000, 500)", off, n)
	}
	if off, n := p.Span(1000, 0); off != 0 || n != 1000 {
		t.Errorf("Span(1000, 0) = (%d, %d), want (0, 1000)", off, n)
	}
}

func TestDefaultChunkBytes(t *testing.T) {
	if got := NewPlane(Config{}).ChunkBytes(); got != DefaultChunkBytes {
		t.Errorf("default chunk size = %d, want %d", got, DefaultChunkBytes)
	}
	if got := NewPlane(Config{ChunkBytes: 4096}).ChunkBytes(); got != 4096 {
		t.Errorf("explicit chunk size = %d, want 4096", got)
	}
}

func TestCacheLookupAccounting(t *testing.T) {
	p := NewPlane(Config{})
	c := p.CacheFor("n1")
	if p.CacheFor("n1") != c {
		t.Fatal("CacheFor minted a second cache for the same node")
	}
	k := p.Mint()
	if c.Lookup(k, 100) {
		t.Fatal("lookup hit on an empty cache")
	}
	c.Add(k, 100)
	if !c.Contains(k) {
		t.Fatal("added key not contained")
	}
	if !c.Lookup(k, 100) {
		t.Fatal("lookup missed an added key")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.BytesSaved != 100 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 100 bytes saved", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", got)
	}
	if got := (Stats{}).HitRate(); got != 0 {
		t.Errorf("empty hit rate = %v, want 0", got)
	}
}

func TestPlaneStatsSumAcrossNodes(t *testing.T) {
	p := NewPlane(Config{})
	a, b := p.CacheFor("a"), p.CacheFor("b")
	k := p.Mint()
	a.Add(k, 64)
	a.Lookup(k, 64)
	b.Lookup(k, 64) // b never held it: miss
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.BytesSaved != 64 {
		t.Errorf("plane stats = %+v, want the two caches' counters summed", st)
	}
}
