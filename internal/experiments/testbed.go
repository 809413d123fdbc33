package experiments

import (
	"fmt"

	"vmgrid/internal/core"
	"vmgrid/internal/guest"
	"vmgrid/internal/hw"
	"vmgrid/internal/sim"
	"vmgrid/internal/storage"
	"vmgrid/internal/vmm"
)

// This file is the shared grid testbed. Every grid experiment replays
// the paper's Figure 3 life cycle on the same kind of LAN: a front end,
// compute nodes, a data or image server, a session instantiated and
// then run. The testbed holds that setup, the supervision and the
// kernel stepping once, and sweep fans a paired design of cells ×
// samples × arms out through RunSamples.

// benchSession is the session every grid experiment submits: user
// "bench" through the front end, the rh72 image restored warm onto a
// non-persistent disk from the compute node's local copy. Runners copy
// it and change what their design sweeps.
var benchSession = core.SessionConfig{
	User: "bench", FrontEnd: "front", Image: "rh72",
	Mode: vmm.WarmRestore, Disk: core.NonPersistent, Access: core.AccessLocal,
}

// benchImage is the 2 GB rh72 image with a 128 MB memory image.
var benchImage = storage.ImageInfo{Name: "rh72", OS: "rh72", DiskBytes: 2 * hw.GB, MemBytes: 128 * hw.MB}

// testbed is one grid and its kernel, plus the first error raised
// inside a simulation callback, where it cannot be returned.
type testbed struct {
	g   *core.Grid
	k   *sim.Kernel
	err error
}

// newTestbed creates the empty grid. Instrumentation that must see the
// grid from its first event — tracer, flight recorder, telemetry — is
// enabled between this and lan.
func newTestbed(seed uint64) *testbed {
	g := core.NewGrid(seed)
	if testbedMade != nil {
		testbedMade(g)
	}
	return &testbed{g: g, k: g.Kernel()}
}

// testbedMade, when set, sees every grid newTestbed creates, so a test
// can inspect what a run left in it (its telemetry store). Runs may
// call it from several goroutines at once.
var testbedMade func(*core.Grid)

// lan attaches nodes in order and joins them on one LAN.
func (tb *testbed) lan(nodes ...core.NodeConfig) error {
	names := make([]string, len(nodes))
	for i, cfg := range nodes {
		if _, err := tb.g.AddNode(cfg); err != nil {
			return err
		}
		names[i] = cfg.Name
	}
	return tb.g.Net().BuildLAN(names...)
}

// install puts img on each named node, in order.
func (tb *testbed) install(img storage.ImageInfo, nodes ...string) error {
	for _, n := range nodes {
		if err := tb.g.Node(n).InstallImage(img); err != nil {
			return err
		}
	}
	return nil
}

// fail records err (if non-nil) unless an earlier error was recorded.
// The runner reports it once the kernel stops.
func (tb *testbed) fail(err error) {
	if tb.err == nil {
		tb.err = err
	}
}

// step drives the kernel in one-minute quanta until cond holds or cap
// has passed. Heartbeats, scrapes and the monitor keep the event queue
// non-empty forever, so a supervised grid is never drained.
func (tb *testbed) step(cap sim.Duration, cond func() bool) {
	deadline := tb.k.Now().Add(cap)
	for !cond() && tb.k.Now() < deadline {
		_ = tb.k.RunUntil(tb.k.Now().Add(sim.Minute))
	}
}

// session submits cfg and steps until the session is ready, failing if
// it is not ready within wait.
func (tb *testbed) session(cfg core.SessionConfig, wait sim.Duration) (*core.Session, error) {
	var sess *core.Session
	ready, serr := false, error(nil)
	if _, err := tb.g.CreateSession(cfg, func(s *core.Session, err error) {
		sess, serr, ready = s, err, true
	}); err != nil {
		return nil, err
	}
	tb.step(wait, func() bool { return ready })
	if !ready || serr != nil {
		return nil, fmt.Errorf("experiments: session setup: ready=%v err=%v", ready, serr)
	}
	return sess, nil
}

// supervise puts sess under a new supervisor and steps until its
// baseline checkpoint commits.
func (tb *testbed) supervise(sess *core.Session, cfg core.SupervisorConfig) (*core.Supervisor, error) {
	sup, err := core.NewSupervisor(tb.g, cfg)
	if err != nil {
		return nil, err
	}
	adopted, aerr := false, error(nil)
	if err := sup.Adopt(sess, func(err error) { aerr, adopted = err, true }); err != nil {
		return nil, err
	}
	tb.step(sim.Hour, func() bool { return adopted })
	if !adopted || aerr != nil {
		return nil, fmt.Errorf("experiments: baseline checkpoint: adopted=%v err=%v", adopted, aerr)
	}
	return sup, nil
}

// task is a supervised task in flight; done turns true at completion.
type task struct {
	sess *core.Session
	res  guest.TaskResult
	done bool
}

// runTask starts w on sess under sup. onDone runs at completion, before
// the kernel moves on, to snapshot what the run measures.
func runTask(sup *core.Supervisor, sess *core.Session, w guest.Workload, onDone func()) (*task, error) {
	t := &task{sess: sess}
	err := sup.Run(sess, w, func(r guest.TaskResult) {
		t.res = r
		onDone()
		t.done = true
	})
	return t, err
}

// finish steps until t completes, failing if it has not within cap or
// if the task itself failed.
func (tb *testbed) finish(t *task, cap sim.Duration) (guest.TaskResult, error) {
	tb.step(cap, func() bool { return t.done })
	if !t.done {
		return t.res, fmt.Errorf("experiments: task never finished (state %q)", t.sess.State())
	}
	if t.res.Err != nil {
		return t.res, fmt.Errorf("experiments: task: %w", t.res.Err)
	}
	return t.res, nil
}

// sweep runs a paired design of cells × samples × arms. Each (cell,
// sample) pair is one RunSamples sample, and every arm of that sample
// replays its seed, so the arms of a cell compare identical randomness.
// out[c][a] holds cell c's arm a results in sample order, identical at
// every worker count. The first error names its cell, arm and sample.
func sweep[T any](seed uint64, cells, samples, arms, workers int, run func(cell, arm int, seed uint64) (T, error)) ([][][]T, error) {
	flat, err := RunSamples(seed, cells*samples, workers, func(i int, sseed uint64) ([]T, error) {
		out := make([]T, arms)
		for a := range out {
			v, err := run(i/samples, a, sseed)
			if err != nil {
				return nil, fmt.Errorf("cell %d, arm %d, sample %d: %w", i/samples, a, i%samples, err)
			}
			out[a] = v
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][][]T, cells)
	for c := range out {
		out[c] = make([][]T, arms)
		for a := range out[c] {
			out[c][a] = make([]T, samples)
			for s := range out[c][a] {
				out[c][a][s] = flat[c*samples+s][a]
			}
		}
	}
	return out, nil
}
