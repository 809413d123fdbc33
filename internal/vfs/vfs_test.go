package vfs

import (
	"testing"

	"vmgrid/internal/hostos"
	"vmgrid/internal/hw"
	"vmgrid/internal/netsim"
	"vmgrid/internal/sim"
	"vmgrid/internal/storage"
)

type world struct {
	k       *sim.Kernel
	net     *netsim.Network
	server  *Server
	sstore  *storage.Store
	cluster []*hostos.Host
}

func newWorld(t testing.TB, wan bool) *world {
	t.Helper()
	k := sim.NewKernel(1)
	n := netsim.New(k)
	srvHost, err := hostos.New(k, hw.ReferenceMachine("server"))
	if err != nil {
		t.Fatal(err)
	}
	cliHost, err := hostos.New(k, hw.ReferenceMachine("client"))
	if err != nil {
		t.Fatal(err)
	}
	n.AddNode("server")
	n.AddNode("client")
	if wan {
		if err := n.ConnectWAN("client", "server"); err != nil {
			t.Fatal(err)
		}
	} else {
		if err := n.ConnectLAN("client", "server"); err != nil {
			t.Fatal(err)
		}
	}
	store := storage.NewStore(srvHost)
	if err := store.Create("data", 1<<30); err != nil {
		t.Fatal(err)
	}
	return &world{
		k:       k,
		net:     n,
		server:  NewServer(store),
		sstore:  store,
		cluster: []*hostos.Host{srvHost, cliHost},
	}
}

// counting wraps a Transport and counts the RPCs a client issues
// through it: one transport call per RPC, since an RPC has one attempt.
type counting struct {
	Transport
	rpcs uint64
}

func (t *counting) Read(file string, off, size int64, done func(error)) {
	t.rpcs++
	t.Transport.Read(file, off, size, done)
}

func (t *counting) Write(file string, off, size int64, done func(error)) {
	t.rpcs++
	t.Transport.Write(file, off, size, done)
}

// dial connects the client node to the world's server over the network,
// counting RPCs.
func (w *world) dial(t testing.TB) *counting {
	t.Helper()
	tr, err := NewNetTransport(w.net, "client", "server", w.server)
	if err != nil {
		t.Fatal(err)
	}
	return &counting{Transport: tr}
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{LoopbackNFSConfig(), LANConfig(), WANConfig()} {
		if err := cfg.validate(); err != nil {
			t.Errorf("preset invalid: %v", err)
		}
	}
	k := sim.NewKernel(1)
	bad := []Config{
		{Rsize: 0, Prefetch: 0},
		{Rsize: 16, Prefetch: 8},
		{Rsize: 16, Prefetch: 16, CacheBytes: -1},
	}
	for _, cfg := range bad {
		if _, err := NewClient(k, nil, cfg); err == nil {
			t.Errorf("NewClient accepted %+v", cfg)
		}
	}
}

func TestRemoteReadOverLAN(t *testing.T) {
	w := newWorld(t, false)
	tr := w.dial(t)
	c, err := NewClient(w.k, tr, LANConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := c.Open("data", 1<<30)
	var doneAt sim.Time = -1
	f.Read(0, 64<<10, func() { doneAt = w.k.Now() })
	w.k.Run()
	if doneAt < 0 {
		t.Fatal("read never completed")
	}
	// One round trip + server disk: comfortably under 100 ms on a LAN,
	// but well above the sub-millisecond cache-hit time.
	if doneAt > sim.Time(100*sim.Millisecond) || doneAt < sim.Time(sim.Millisecond) {
		t.Errorf("LAN read took %v", doneAt)
	}
	if tr.rpcs == 0 || c.Misses() == 0 {
		t.Error("no remote activity recorded")
	}
}

func TestCacheHitOnSecondRead(t *testing.T) {
	w := newWorld(t, false)
	tr := w.dial(t)
	c, _ := NewClient(w.k, tr, LANConfig())
	f := c.Open("data", 1<<30)
	f.Read(0, 64<<10, nil)
	w.k.Run()
	opsBefore := tr.rpcs
	var start = w.k.Now()
	var doneAt sim.Time
	f.Read(0, 64<<10, func() { doneAt = w.k.Now() })
	w.k.Run()
	if tr.rpcs != opsBefore {
		t.Error("cached read went remote")
	}
	// A hit pays only the per-op client cost, never a round trip.
	if doneAt.Sub(start) > 2*sim.Millisecond {
		t.Errorf("cached read took %v", doneAt.Sub(start))
	}
	if c.Hits() == 0 {
		t.Error("no hits recorded")
	}
}

func TestPrefetchReducesRoundTrips(t *testing.T) {
	// Sequential small reads with a 192 KB prefetch window must issue
	// roughly size/window RPCs, not size/rsize.
	w := newWorld(t, true)
	tr := w.dial(t)
	c, _ := NewClient(w.k, tr, WANConfig())
	f := c.Open("data", 1<<30)

	const total = 4 << 20
	const per = 8 << 10
	var issue func(off int64)
	done := false
	issue = func(off int64) {
		if off >= total {
			done = true
			return
		}
		f.Read(off, per, func() { issue(off + per) })
	}
	issue(0)
	w.k.Run()
	if !done {
		t.Fatal("sequential scan never finished")
	}
	wantOps := uint64(total / (192 << 10))
	if ops := tr.rpcs; ops < wantOps || ops > wantOps*2 {
		t.Errorf("%d RPCs for 4 MB scan, want ~%d (prefetch)", ops, wantOps)
	}
}

func TestZeroCacheClientRefetches(t *testing.T) {
	w := newWorld(t, false)
	tr := &counting{Transport: NewLoopbackTransport(w.k, w.server)}
	c, _ := NewClient(w.k, tr, Config{Rsize: 16 << 10, Prefetch: 16 << 10, CacheBytes: 0})
	f := c.Open("data", 1<<30)
	f.Read(0, 16<<10, nil)
	w.k.Run()
	ops := tr.rpcs
	f.Read(0, 16<<10, nil)
	w.k.Run()
	if tr.rpcs == ops {
		t.Error("client cached despite CacheBytes=0")
	}
}

func TestLoopbackCacheIsSmallAndBounded(t *testing.T) {
	// The loopback preset models a kernel NFS client: a small page
	// cache with readahead, far below the proxy presets.
	cfg := LoopbackNFSConfig()
	if cfg.CacheBytes <= 0 || cfg.CacheBytes >= LANConfig().CacheBytes {
		t.Errorf("loopback cache %d not a small bounded window", cfg.CacheBytes)
	}
	if cfg.PerOpCost != 0 {
		t.Error("loopback must not double-charge a proxy per-op cost")
	}
}

func TestLoopbackLatencyDominatedByStack(t *testing.T) {
	w := newWorld(t, false)
	tr := NewLoopbackTransport(w.k, w.server)
	c, _ := NewClient(w.k, tr, LoopbackNFSConfig())
	f := c.Open("data", 1<<30)
	var doneAt sim.Time
	f.Read(0, 16<<10, func() { doneAt = w.k.Now() })
	w.k.Run()
	// 2×1 ms stack + server processing + one page fetch: ~2-12 ms.
	if doneAt < sim.Time(2*sim.Millisecond) || doneAt > sim.Time(15*sim.Millisecond) {
		t.Errorf("loopback RPC took %v", doneAt)
	}
}

func TestWANReadPaysRoundTrip(t *testing.T) {
	w := newWorld(t, true)
	tr, _ := NewNetTransport(w.net, "client", "server", w.server)
	c, _ := NewClient(w.k, tr, WANConfig())
	f := c.Open("data", 1<<30)
	var doneAt sim.Time
	f.Read(0, 8<<10, func() { doneAt = w.k.Now() })
	w.k.Run()
	if doneAt < sim.Time(28*sim.Millisecond) {
		t.Errorf("WAN read took %v, must pay the ~28 ms RTT", doneAt)
	}
}

func TestUnknownFileStillCompletes(t *testing.T) {
	w := newWorld(t, false)
	tr, _ := NewNetTransport(w.net, "client", "server", w.server)
	c, _ := NewClient(w.k, tr, LANConfig())
	f := c.Open("ghost", 1<<20)
	completed := false
	f.Read(0, 4096, func() { completed = true })
	w.k.Run()
	if !completed {
		t.Error("read of unknown file hung instead of completing")
	}
}

func TestRemoteWriteThrough(t *testing.T) {
	w := newWorld(t, false)
	tr := w.dial(t)
	c, _ := NewClient(w.k, tr, LANConfig())
	f := c.Open("scratch", 0)
	var doneAt sim.Time = -1
	f.Write(0, 128<<10, func() { doneAt = w.k.Now() })
	w.k.Run()
	if doneAt < 0 {
		t.Fatal("write never acked")
	}
	if !w.sstore.Has("scratch") {
		t.Error("write did not create the file server-side")
	}
	if f.Size() != 128<<10 {
		t.Errorf("client size = %d", f.Size())
	}
	// Written blocks are resident: an immediate read-back stays local.
	ops := tr.rpcs
	f.Read(0, 128<<10, nil)
	w.k.Run()
	if tr.rpcs != ops {
		t.Error("read-after-write went remote")
	}
}

func TestClientSerializesRPCs(t *testing.T) {
	w := newWorld(t, false)
	tr, _ := NewNetTransport(w.net, "client", "server", w.server)
	c, _ := NewClient(w.k, tr, Config{Rsize: 32 << 10, Prefetch: 32 << 10, CacheBytes: 1 << 20})
	f := c.Open("data", 1<<30)
	var t1, t2 sim.Time
	f.Read(0, 32<<10, func() { t1 = w.k.Now() })
	f.Read(10<<20, 32<<10, func() { t2 = w.k.Now() })
	w.k.Run()
	if t2 <= t1 {
		t.Errorf("second RPC (%v) did not serialize after first (%v)", t2, t1)
	}
}

func TestCacheEvictionBounded(t *testing.T) {
	w := newWorld(t, false)
	tr := w.dial(t)
	cfg := Config{Rsize: 32 << 10, Prefetch: 32 << 10, CacheBytes: 128 << 10} // 4 blocks
	c, _ := NewClient(w.k, tr, cfg)
	f := c.Open("data", 1<<30)
	for i := int64(0); i < 16; i++ {
		f.Read(i*(32<<10), 32<<10, nil)
	}
	w.k.Run()
	// Re-reading the first block must be a miss again.
	ops := tr.rpcs
	f.Read(0, 32<<10, nil)
	w.k.Run()
	if tr.rpcs == ops {
		t.Error("evicted block served from cache")
	}
}

func TestNetTransportUnknownNode(t *testing.T) {
	w := newWorld(t, false)
	if _, err := NewNetTransport(w.net, "client", "nowhere", w.server); err == nil {
		t.Error("transport to unknown node accepted")
	}
}
