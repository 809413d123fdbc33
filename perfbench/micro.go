package main

import (
	"errors"
	"fmt"
	"time"

	"vmgrid/internal/chunk"
	"vmgrid/internal/gis"
	"vmgrid/internal/gram"
	"vmgrid/internal/hostos"
	"vmgrid/internal/hw"
	"vmgrid/internal/netsim"
	"vmgrid/internal/obs"
	"vmgrid/internal/placement"
	"vmgrid/internal/sim"
	"vmgrid/internal/storage"
	"vmgrid/internal/vfs"
	"vmgrid/internal/wire"
)

// micro times n calls into one layer's public API and returns the time
// spent in the calls alone; set-up between calls is not timed.
type micro struct {
	name string
	n    int
	run  func(seed uint64, n int) (time.Duration, error)
}

// microRounds is how many times each microbenchmark runs; the reported
// value is the median round.
const microRounds = 5

var micros = []micro{
	{"sim.event_ns", 200000, eventDispatch},
	{"netsim.send_ns", 20000, lanSend},
	{"vfs.read_hit_ns", 20000, func(seed uint64, n int) (time.Duration, error) { return vfsRead(seed, n, true) }},
	{"vfs.read_miss_ns", 4000, func(seed uint64, n int) (time.Duration, error) { return vfsRead(seed, n, false) }},
	{"storage.copy_ns", 20, storageCopy},
	{"gram.stage_whole_ns", 4, func(seed uint64, n int) (time.Duration, error) { return stage(seed, n, "whole") }},
	{"gram.stage_cold_ns", 4, func(seed uint64, n int) (time.Duration, error) { return stage(seed, n, "cold") }},
	{"gram.stage_warm_ns", 4, func(seed uint64, n int) (time.Duration, error) { return stage(seed, n, "warm") }},
	{"gis.quorum_write_ns", 20000, quorumWrite},
	{"placement.pick_ns", 20000, placementPick},
	{"telemetry.scrape_ns", 2000, telemetryScrape},
	{"obs.span_ns", 200000, spanBeginEnd},
}

// runMicros reports each microbenchmark's median ns per call.
func runMicros(res *result, seed uint64) error {
	for _, m := range micros {
		var ns []float64
		for r := 0; r < microRounds; r++ {
			d, err := m.run(seed, m.n)
			if err != nil {
				return fmt.Errorf("%s: %w", m.name, err)
			}
			ns = append(ns, float64(d.Nanoseconds())/float64(m.n))
		}
		res.set(m.name, median(ns), fmt.Sprintf("median of %d rounds of %d calls", microRounds, m.n))
	}
	return nil
}

// eventDispatch chains n events, each scheduled by the previous one's
// callback: Kernel.After plus dispatch.
func eventDispatch(seed uint64, n int) (time.Duration, error) {
	k := sim.NewKernel(seed)
	fired := 0
	var fire func()
	fire = func() {
		fired++
		if fired < n {
			k.After(sim.Microsecond, fire)
		}
	}
	t0 := time.Now()
	k.After(sim.Microsecond, fire)
	k.Run()
	d := time.Since(t0)
	if fired != n {
		return 0, fmt.Errorf("dispatched %d of %d events", fired, n)
	}
	return d, nil
}

// lanSend sends n 1500-byte messages across one LAN link, each
// delivered before the next is sent.
func lanSend(seed uint64, n int) (time.Duration, error) {
	k := sim.NewKernel(seed)
	net := netsim.New(k)
	if err := net.BuildLAN("a", "b"); err != nil {
		return 0, err
	}
	delivered := 0
	deliver := func(any) { delivered++ }
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := net.Send("a", "b", 1500, nil, deliver); err != nil {
			return 0, err
		}
		k.Run()
	}
	d := time.Since(t0)
	if delivered != n {
		return 0, fmt.Errorf("delivered %d of %d messages", delivered, n)
	}
	return d, nil
}

// vfsRead reads 32 KiB blocks through a LAN PVFS proxy: with hit, the
// same 1 MiB over and over after warming it; without, a fresh prefetch
// window on every read, so every read goes to the server.
func vfsRead(seed uint64, n int, hit bool) (time.Duration, error) {
	k := sim.NewKernel(seed)
	net := netsim.New(k)
	if err := net.BuildLAN("client", "server"); err != nil {
		return 0, err
	}
	host, err := hostos.New(k, hw.ReferenceMachine("server"))
	if err != nil {
		return 0, err
	}
	store := storage.NewStore(host)
	if err := store.Create("data", 1<<30); err != nil {
		return 0, err
	}
	tr, err := vfs.NewNetTransport(net, "client", "server", vfs.NewServer(store))
	if err != nil {
		return 0, err
	}
	cfg := vfs.LANConfig()
	c, err := vfs.NewClient(k, tr, cfg)
	if err != nil {
		return 0, err
	}
	f := c.Open("data", 1<<30)
	done := 0
	count := func() { done++ }
	const block, warm = 32 << 10, 1 << 20
	if hit {
		f.Read(0, warm, count)
		k.Run()
	}
	base := c.Hits()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		off := int64(i) * cfg.Prefetch
		if hit {
			off = int64(i) * block % warm
		}
		f.Read(off, block, count)
		k.Run()
	}
	d := time.Since(t0)
	hits := c.Hits() - base
	if hit {
		done-- // the warming read
	}
	switch {
	case done != n:
		return 0, fmt.Errorf("completed %d reads", done)
	case hit && hits != uint64(n):
		return 0, fmt.Errorf("%d of %d cached reads hit", hits, n)
	case !hit && hits != 0:
		return 0, fmt.Errorf("%d of %d uncached reads hit", hits, n)
	}
	return d, nil
}

// storageCopy copies a 2 GB image within one store.
func storageCopy(seed uint64, n int) (time.Duration, error) {
	k := sim.NewKernel(seed)
	host, err := hostos.New(k, hw.ReferenceMachine("node"))
	if err != nil {
		return 0, err
	}
	store := storage.NewStore(host)
	if err := store.Create("image", 2*hw.GB); err != nil {
		return 0, err
	}
	copied := 0
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := store.Copy("image", fmt.Sprintf("copy%d", i), func() { copied++ }); err != nil {
			return 0, err
		}
		k.Run()
	}
	d := time.Since(t0)
	if copied != n {
		return 0, fmt.Errorf("finished %d of %d copies", copied, n)
	}
	return d, nil
}

// stage moves a 256 MB image between two LAN nodes with gram.Stage:
// whole-file with no chunk plane, cold into an empty chunk cache, or
// warm, re-staged after a cold stage so every chunk hits.
func stage(seed uint64, n int, mode string) (time.Duration, error) {
	var total time.Duration
	for i := 0; i < n; i++ {
		k := sim.NewKernel(seed + uint64(i))
		net := netsim.New(k)
		if err := net.BuildLAN("src", "dst"); err != nil {
			return 0, err
		}
		srcHost, err := hostos.New(k, hw.ReferenceMachine("src"))
		if err != nil {
			return 0, err
		}
		dstHost, err := hostos.New(k, hw.ReferenceMachine("dst"))
		if err != nil {
			return 0, err
		}
		src, dst := storage.NewStore(srcHost), storage.NewStore(dstHost)
		if mode != "whole" {
			plane := chunk.NewPlane(chunk.Config{})
			src.SetChunkPlane(plane)
			dst.SetChunkPlane(plane)
		}
		if err := src.Create("image", 256<<20); err != nil {
			return 0, err
		}
		once := func(as string) (time.Duration, error) {
			var stageErr error
			finished := false
			t0 := time.Now()
			if err := gram.Stage(net, "src", src, "image", "dst", dst, as, func(err error) {
				stageErr, finished = err, true
			}); err != nil {
				return 0, err
			}
			k.Run()
			d := time.Since(t0)
			if !finished {
				return 0, errors.New("stage never finished")
			}
			return d, stageErr
		}
		if mode == "warm" {
			if _, err := once("cold"); err != nil {
				return 0, err
			}
		}
		d, err := once(mode)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// quorumWrite bumps a session epoch through a 3-replica GIS cluster on
// a LAN, running the kernel after each bump.
func quorumWrite(seed uint64, n int) (time.Duration, error) {
	k := sim.NewKernel(seed)
	net := netsim.New(k)
	nodes := []string{"g0", "g1", "g2"}
	if err := net.BuildLAN(nodes...); err != nil {
		return 0, err
	}
	c, err := gis.NewCluster(net, gis.New(k), nodes, 0)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		epoch, err := c.BumpEpoch(nodes[i%len(nodes)], "session")
		if err != nil {
			return 0, err
		}
		if epoch != int64(i+1) {
			return 0, fmt.Errorf("bump %d returned epoch %d", i, epoch)
		}
		k.Run()
	}
	return time.Since(t0), nil
}

// placementPick ranks a 64-node candidate pool with each built-in
// policy in turn; n counts Pick calls.
func placementPick(seed uint64, n int) (time.Duration, error) {
	rng := sim.NewRNG(seed)
	cands := make([]placement.Candidate, 64)
	for i := range cands {
		cands[i] = placement.Candidate{
			Node:      fmt.Sprintf("node%02d", i),
			Site:      "a",
			Slots:     1 + i%4,
			Speed:     1 + rng.Uniform(0, 1),
			Load:      rng.Uniform(0, 4),
			Predicted: rng.Uniform(0, 4),
		}
	}
	req := placement.Request{Session: "vm-bench", User: "bench", Image: "rh72"}
	policies := []placement.Placer{placement.LeastLoaded{}, placement.PredictedLoad{}, placement.Pack{}}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		p := policies[i%len(policies)]
		if _, ok := p.Pick(req, cands); !ok {
			return 0, fmt.Errorf("%s placed nothing from a full pool", p.Name())
		}
	}
	return time.Since(t0), nil
}

// telemetryScrape scrapes the collector of a demo grid with two live
// sessions, one simulated second apart.
func telemetryScrape(seed uint64, n int) (time.Duration, error) {
	srv := wire.NewServer(seed)
	l := wire.NewLocal(srv)
	if err := buildDemoFabric(l); err != nil {
		return 0, err
	}
	for i := 0; i < 2; i++ {
		if _, err := l.NewSession(wire.SessionParams{
			User: "bench", FrontEnd: "front", Image: "rh72",
			Mode: "restore", Disk: "non-persistent", Access: "local",
			DataNode: "data", DataFile: "dataset",
		}); err != nil {
			return 0, err
		}
	}
	g := srv.Grid()
	col := g.Telemetry()
	k := g.Kernel()
	before := col.Scrapes()
	var total time.Duration
	for i := 0; i < n; i++ {
		if err := k.RunFor(sim.Second); err != nil && !errors.Is(err, sim.ErrStalled) {
			return 0, err
		}
		t0 := time.Now()
		col.Scrape()
		total += time.Since(t0)
	}
	if got := col.Scrapes() - before; got != n {
		return 0, fmt.Errorf("%d of %d scrapes ran", got, n)
	}
	return total, nil
}

// spanBeginEnd opens and closes n spans on an enabled tracer.
func spanBeginEnd(seed uint64, n int) (time.Duration, error) {
	tr := obs.New(sim.NewKernel(seed))
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sp := tr.Begin("bench", "cat", "span")
		sp.End()
	}
	d := time.Since(t0)
	if got := len(tr.Spans()); got != n {
		return 0, fmt.Errorf("recorded %d of %d spans", got, n)
	}
	return d, nil
}

// buildDemoFabric builds vmgridd's -demo testbed through the wire API:
// front end, two compute nodes and a data server on one LAN, an image
// server across a WAN, a 2 GB image and a 1 GB dataset.
func buildDemoFabric(l *wire.Local) error {
	for _, p := range []wire.AddNodeParams{
		{Name: "front", Site: "nwu", Roles: []string{"front-end"}},
		{Name: "compute1", Site: "nwu", Roles: []string{"compute"}, Slots: 2, DHCPPrefix: "10.1.0."},
		{Name: "compute2", Site: "nwu", Roles: []string{"compute"}, Slots: 2, DHCPPrefix: "10.1.1."},
		{Name: "data", Site: "nwu", Roles: []string{"data-server"}},
		{Name: "images", Site: "ufl", Roles: []string{"image-server"}},
	} {
		if err := l.AddNode(p); err != nil {
			return err
		}
	}
	lan := []string{"front", "compute1", "compute2", "data"}
	for i, a := range lan {
		for _, b := range lan[i+1:] {
			if err := l.Connect(a, b, "lan"); err != nil {
				return err
			}
		}
	}
	for _, a := range []string{"front", "compute1", "compute2"} {
		if err := l.Connect(a, "images", "wan"); err != nil {
			return err
		}
	}
	for _, node := range []string{"compute1", "compute2", "images"} {
		if err := l.InstallImage(wire.InstallImageParams{
			Node: node, Name: "rh72", OS: "redhat-7.2", DiskBytes: 2 * hw.GB, MemBytes: 128 * hw.MB,
		}); err != nil {
			return err
		}
	}
	return l.CreateData(wire.CreateDataParams{Node: "data", File: "dataset", Bytes: 1 * hw.GB})
}
