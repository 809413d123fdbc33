package gram

import (
	"errors"
	"testing"

	"vmgrid/internal/hostos"
	"vmgrid/internal/hw"
	"vmgrid/internal/netsim"
	"vmgrid/internal/obs"
	"vmgrid/internal/sim"
	"vmgrid/internal/storage"
)

type grid struct {
	k        *sim.Kernel
	net      *netsim.Network
	client   *Client
	registry *Registry
	server   *hostos.Host
	clientH  *hostos.Host
}

func newGrid(t *testing.T) *grid {
	t.Helper()
	k := sim.NewKernel(1)
	n := netsim.New(k)
	if err := n.BuildLAN("front", "compute"); err != nil {
		t.Fatal(err)
	}
	server, err := hostos.New(k, hw.ReferenceMachine("compute"))
	if err != nil {
		t.Fatal(err)
	}
	clientH, err := hostos.New(k, hw.ReferenceMachine("front"))
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Add("compute", NewGatekeeper(server))
	c, err := NewClient(n, reg, "front", clientH)
	if err != nil {
		t.Fatal(err)
	}
	return &grid{k: k, net: n, client: c, registry: reg, server: server, clientH: clientH}
}

func TestSubmitRunsJob(t *testing.T) {
	g := newGrid(t)
	ran := false
	var doneAt sim.Time = -1
	job := Job{
		Name: "noop",
		Run: func(_ obs.SpanContext, done func(error)) {
			ran = true
			done(nil)
		},
	}
	if err := g.client.Submit("compute", job, func(err error) {
		if err != nil {
			t.Errorf("job error: %v", err)
		}
		doneAt = g.k.Now()
	}); err != nil {
		t.Fatal(err)
	}
	g.k.Run()
	if !ran || doneAt < 0 {
		t.Fatal("job did not run to completion")
	}
	// The control path costs client setup + auth + round trips: on an
	// idle LAN this is on the order of 1-3 s, never sub-second.
	if doneAt < sim.Time(sim.Second) || doneAt > sim.Time(5*sim.Second) {
		t.Errorf("control path took %v, want ~1-3s (globusrun envelope)", doneAt)
	}
}

func TestSubmitErrors(t *testing.T) {
	g := newGrid(t)
	if err := g.client.Submit("nowhere", Job{Name: "x", Run: func(_ obs.SpanContext, done func(error)) { done(nil) }}, nil); !errors.Is(err, ErrNoGatekeeper) {
		t.Errorf("submit to unknown node = %v", err)
	}
	gk := g.registry.At("compute")
	if err := gk.Submit(Job{Name: "empty"}, nil); err == nil {
		t.Error("bodyless job accepted")
	}
}

func TestJobErrorPropagates(t *testing.T) {
	g := newGrid(t)
	boom := errors.New("disk on fire")
	var got error
	job := Job{Name: "failing", Run: func(_ obs.SpanContext, done func(error)) { done(boom) }}
	if err := g.client.Submit("compute", job, func(err error) { got = err }); err != nil {
		t.Fatal(err)
	}
	g.k.Run()
	if !errors.Is(got, boom) {
		t.Errorf("propagated error = %v", got)
	}
}

func TestLoadedHostSlowsControlPath(t *testing.T) {
	idle := newGrid(t)
	var idleAt sim.Time
	_ = idle.client.Submit("compute", Job{Name: "j", Run: func(_ obs.SpanContext, done func(error)) { done(nil) }},
		func(error) { idleAt = idle.k.Now() })
	idle.k.Run()

	busy := newGrid(t)
	hog := busy.server.Spawn("hog")
	hog.SetDemand(1)
	var busyAt sim.Time
	_ = busy.client.Submit("compute", Job{Name: "j", Run: func(_ obs.SpanContext, done func(error)) { done(nil) }},
		func(error) { busyAt = busy.k.Now() })
	_ = busy.k.RunUntil(sim.Time(sim.Minute))
	if busyAt <= idleAt {
		t.Errorf("loaded gatekeeper (%v) not slower than idle (%v)", busyAt, idleAt)
	}
}

func TestStageWholeFile(t *testing.T) {
	g := newGrid(t)
	srcStore := storage.NewStore(g.clientH)
	dstStore := storage.NewStore(g.server)
	const size = 64 << 20
	if err := srcStore.Create("image", size); err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time = -1
	if err := Stage(g.net, "front", srcStore, "image", "compute", dstStore, "image", func(err error) {
		if err != nil {
			t.Errorf("stage: %v", err)
		}
		doneAt = g.k.Now()
	}); err != nil {
		t.Fatal(err)
	}
	g.k.Run()
	if doneAt < 0 {
		t.Fatal("stage never finished")
	}
	if sz, _ := dstStore.Size("image"); sz != size {
		t.Errorf("staged size = %d", sz)
	}
	// 64 MB over 100 Mbit ≥ 5.1 s, plus disk on both ends.
	if doneAt.Seconds() < 5 {
		t.Errorf("stage took %.2fs, faster than the wire allows", doneAt.Seconds())
	}
}

func TestStageErrors(t *testing.T) {
	g := newGrid(t)
	src := storage.NewStore(g.clientH)
	dst := storage.NewStore(g.server)
	if err := Stage(g.net, "front", src, "missing", "compute", dst, "x", nil); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("stage missing = %v", err)
	}
	if err := src.Create("f", 10); err != nil {
		t.Fatal(err)
	}
	if err := dst.Create("x", 10); err != nil {
		t.Fatal(err)
	}
	if err := Stage(g.net, "front", src, "f", "compute", dst, "x", nil); !errors.Is(err, storage.ErrExists) {
		t.Errorf("stage onto existing = %v", err)
	}
}

func TestClientValidation(t *testing.T) {
	g := newGrid(t)
	if _, err := NewClient(g.net, g.registry, "ghost", g.clientH); err == nil {
		t.Error("client at unknown node accepted")
	}
}
