package wire

import (
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"testing"

	"vmgrid/internal/sim"
)

// startServer spins a server on a free port and returns a connected
// client, tearing both down with the test.
func startServer(t *testing.T) *Client {
	t.Helper()
	srv := NewServer(1)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// buildFabric assembles the standard two-site deployment over the wire.
func buildFabric(t *testing.T, c *Client) {
	t.Helper()
	nodes := []AddNodeParams{
		{Name: "front", Site: "nwu", Roles: []string{"front-end"}},
		{Name: "compute1", Site: "nwu", Roles: []string{"compute"}, Slots: 2, DHCPPrefix: "10.1.0."},
		{Name: "compute2", Site: "nwu", Roles: []string{"compute"}, Slots: 2, DHCPPrefix: "10.1.1."},
		{Name: "data", Site: "nwu", Roles: []string{"data-server"}},
		{Name: "images", Site: "ufl", Roles: []string{"image-server"}},
	}
	for _, n := range nodes {
		if err := c.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	lan := []string{"front", "compute1", "compute2", "data"}
	for i, a := range lan {
		for _, b := range lan[i+1:] {
			if err := c.Connect(a, b, "lan"); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, a := range []string{"front", "compute1", "compute2"} {
		if err := c.Connect(a, "images", "wan"); err != nil {
			t.Fatal(err)
		}
	}
	img := InstallImageParams{Name: "rh72", OS: "redhat-7.2", DiskBytes: 2 << 30, MemBytes: 128 << 20}
	for _, node := range []string{"compute1", "compute2", "images"} {
		img.Node = node
		if err := c.InstallImage(img); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateData(CreateDataParams{Node: "data", File: "dataset", Bytes: 1 << 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPing(t *testing.T) {
	c := startServer(t)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndSessionOverTCP(t *testing.T) {
	c := startServer(t)
	buildFabric(t, c)

	info, err := c.NewSession(SessionParams{
		User: "alice", FrontEnd: "front", Image: "rh72",
		Mode: "restore", Disk: "non-persistent", Access: "local",
		DataNode: "data", DataFile: "dataset",
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.State != "running" {
		t.Errorf("state = %q", info.State)
	}
	if info.Addr == "" {
		t.Error("no address")
	}
	if info.StartupSec < 5 || info.StartupSec > 30 {
		t.Errorf("startup = %.1fs, want the Table 2 restore band", info.StartupSec)
	}
	if info.Events["ready"] <= 0 {
		t.Error("missing ready event")
	}

	res, err := c.Run(RunParams{
		Session: info.Name, Name: "job", CPUSeconds: 30,
		Reads: 50, ReadBytes: 10 << 20, Mount: "data",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.UserSec != 30 || res.Reads != 50 {
		t.Errorf("run result %+v", res)
	}
	if res.ElapsedSec <= 30 {
		t.Errorf("elapsed %.2f implausibly fast", res.ElapsedSec)
	}

	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Nodes) != 5 || len(st.Sessions) != 1 {
		t.Errorf("status: %d nodes, %d sessions", len(st.Nodes), len(st.Sessions))
	}
	if st.VirtualSec <= 0 {
		t.Error("virtual clock did not advance")
	}

	if err := c.Shutdown(info.Name); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(RunParams{Session: info.Name, Name: "x", CPUSeconds: 1}); err == nil {
		t.Error("run on dead session accepted")
	}
}

func TestPlacementParamsOverTCP(t *testing.T) {
	c := startServer(t)
	buildFabric(t, c)
	hinted, err := c.NewSession(SessionParams{
		User: "alice", FrontEnd: "front", Image: "rh72",
		Mode: "restore", Disk: "non-persistent", Access: "local",
		NodeHint: "compute2",
	})
	if err != nil {
		t.Fatal(err)
	}
	if hinted.Node != "compute2" {
		t.Errorf("hinted session on %q, want compute2", hinted.Node)
	}
	placed, err := c.NewSession(SessionParams{
		User: "bob", FrontEnd: "front", Image: "rh72",
		Mode: "restore", Disk: "non-persistent", Access: "local",
		Place: "least-loaded",
	})
	if err != nil {
		t.Fatal(err)
	}
	if placed.Node == "" {
		t.Error("placed session reports no node")
	}
	if _, err := c.NewSession(SessionParams{
		User: "eve", FrontEnd: "front", Image: "rh72",
		Mode: "restore", Disk: "non-persistent", Access: "local",
		Place: "warp-speed",
	}); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Errorf("unknown policy error = %v", err)
	}
}

func TestMigrateOverTCP(t *testing.T) {
	c := startServer(t)
	buildFabric(t, c)
	info, err := c.NewSession(SessionParams{
		User: "bob", FrontEnd: "front", Image: "rh72",
		Mode: "restore", Disk: "non-persistent", Access: "local",
	})
	if err != nil {
		t.Fatal(err)
	}
	target := "compute2"
	if info.Node == "compute2" {
		target = "compute1"
	}
	moved, err := c.Migrate(info.Name, target)
	if err != nil {
		t.Fatal(err)
	}
	if moved.Node != target {
		t.Errorf("node after migrate = %q, want %q", moved.Node, target)
	}
	if moved.State != "running" {
		t.Errorf("state = %q", moved.State)
	}
}

func TestHibernateWakeOverTCP(t *testing.T) {
	c := startServer(t)
	buildFabric(t, c)
	info, err := c.NewSession(SessionParams{
		User: "carol", FrontEnd: "front", Image: "rh72",
		Mode: "restore", Disk: "non-persistent", Access: "local",
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Hibernate(info.Name)
	if err != nil {
		t.Fatal(err)
	}
	if h.State != "hibernated" {
		t.Errorf("state = %q", h.State)
	}
	w, err := c.Wake(info.Name)
	if err != nil {
		t.Fatal(err)
	}
	if w.State != "running" {
		t.Errorf("state = %q", w.State)
	}
}

func TestQueryOverTCP(t *testing.T) {
	c := startServer(t)
	buildFabric(t, c)
	futures, err := c.Query("vm-future")
	if err != nil {
		t.Fatal(err)
	}
	if len(futures) != 2 {
		t.Errorf("futures = %d, want 2", len(futures))
	}
	hosts, err := c.Query("host")
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 5 {
		t.Errorf("hosts = %d", len(hosts))
	}
}

func TestServerErrors(t *testing.T) {
	c := startServer(t)
	if err := c.Call("frobnicate", nil, nil); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Errorf("unknown op error = %v", err)
	}
	if err := c.AddNode(AddNodeParams{Name: "x", Roles: []string{"warlock"}}); err == nil {
		t.Error("unknown role accepted")
	}
	if err := c.Connect("a", "b", "lan"); err == nil {
		t.Error("connect unknown nodes accepted")
	}
	if _, err := c.NewSession(SessionParams{User: "u", FrontEnd: "nope", Image: "i"}); err == nil {
		t.Error("session with unknown front end accepted")
	}
	if _, err := c.NewSession(SessionParams{User: "u", FrontEnd: "x", Image: "i", Mode: "warp"}); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestConcurrentClients(t *testing.T) {
	srv := NewServer(1)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				if err := c.Ping(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestUsageOverTCP(t *testing.T) {
	c := startServer(t)
	buildFabric(t, c)
	info, err := c.NewSession(SessionParams{
		User: "dora", FrontEnd: "front", Image: "rh72",
		Mode: "restore", Disk: "non-persistent", Access: "local",
		DataNode: "data", DataFile: "dataset",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(RunParams{Session: info.Name, Name: "j", CPUSeconds: 10}); err != nil {
		t.Fatal(err)
	}
	u, err := c.Usage(info.Name)
	if err != nil {
		t.Fatal(err)
	}
	if u.GuestUserSeconds < 10 {
		t.Errorf("guest work = %v", u.GuestUserSeconds)
	}
	if u.CPUSeconds <= u.GuestUserSeconds {
		t.Errorf("cpu %v not above guest work %v", u.CPUSeconds, u.GuestUserSeconds)
	}
	if u.Efficiency <= 0 || u.Efficiency >= 1 {
		t.Errorf("efficiency = %v", u.Efficiency)
	}
	if _, err := c.Usage("ghost"); err == nil {
		t.Error("usage of unknown session accepted")
	}
}

// TestSpansResponseLargerThanFourMiB: the client reads a reply of any
// size over live TCP. A spans reply outgrows 4 MiB after a daemon has
// served a few hundred session lifecycles; only the server caps what it
// accepts (requests), never what it sends.
func TestSpansResponseLargerThanFourMiB(t *testing.T) {
	srv := NewServer(1)
	const n = 60000
	for i := 0; i < n; i++ {
		srv.trace.SpanAt("session/s"+strconv.Itoa(i%250), "phase", "vm-boot", sim.Time(i), sim.Time(i+1))
	}
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	spans, err := c.Spans()
	if err != nil {
		t.Fatalf("spans: %v", err)
	}
	if len(spans) < n {
		t.Fatalf("spans = %d, want >= %d", len(spans), n)
	}
	raw, err := json.Marshal(spans)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) <= 4<<20 {
		t.Fatalf("reply is %d bytes; the test needs one above 4 MiB", len(raw))
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after a large reply: %v", err)
	}
}

// TestTimedOutNewSessionReleasesSlot: a new-session that exceeds its
// virtual-time budget reports failure, so the session it was starting
// must not come up later holding the node's only slot where no wire
// op can reach it, nor its stage keep the WAN.
func TestTimedOutNewSessionReleasesSlot(t *testing.T) {
	srv := NewServer(1)
	l := NewLocal(srv)
	for _, p := range []AddNodeParams{
		{Name: "front", Site: "nwu", Roles: []string{"front-end"}},
		{Name: "compute", Site: "nwu", Roles: []string{"compute"}, Slots: 1, DHCPPrefix: "10.1.0."},
		{Name: "images", Site: "ufl", Roles: []string{"image-server"}},
	} {
		if err := l.AddNode(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, link := range []ConnectParams{{A: "front", B: "compute", Kind: "lan"}, {A: "compute", B: "images", Kind: "wan"}, {A: "front", B: "images", Kind: "wan"}} {
		if err := l.Connect(link.A, link.B, link.Kind); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.InstallImage(InstallImageParams{Node: "images", Name: "huge", OS: "rh", DiskBytes: 200 << 30, MemBytes: 128 << 20}); err != nil {
		t.Fatal(err)
	}
	if err := l.InstallImage(InstallImageParams{Node: "compute", Name: "rh72", OS: "rh", MemBytes: 128 << 20}); err != nil {
		t.Fatal(err)
	}
	_, err := l.NewSession(SessionParams{
		User: "slow", FrontEnd: "front", Image: "huge",
		Mode: "reboot", Disk: "non-persistent", Access: "staged",
	})
	if err == nil || !strings.Contains(err.Error(), "exceeded 4h0m0s of virtual time") {
		t.Fatalf("staging 200 GB over a WAN = %v, want the 4 h budget exceeded", err)
	}
	// The timeout cancelled the start: given virtual time, its WAN stage
	// sends almost nothing more and the session never comes up.
	srv.mu.Lock()
	sent := srv.Grid().Net().BytesSent()
	_ = srv.Grid().Kernel().RunFor(100 * sim.Hour)
	after := srv.Grid().Net().BytesSent() - sent
	srv.mu.Unlock()
	if after >= 2<<20 {
		t.Errorf("network carried %d bytes after the timed-out new-session, want under 2 MiB: its stage ran on", after)
	}
	if live := len(srv.Grid().LiveSessions()); live != 0 {
		t.Errorf("%d sessions live after their new-session failed", live)
	}
	info, err := l.NewSession(SessionParams{
		User: "next", FrontEnd: "front", Image: "rh72",
		Mode: "reboot", Disk: "non-persistent", Access: "local",
	})
	if err != nil {
		t.Fatalf("second session on the freed slot: %v", err)
	}
	if info.Node != "compute" {
		t.Errorf("second session on %q, want compute", info.Node)
	}
}

// TestTimedOutNewSessionFreesSlotAtOnce: a new-session that exceeds its
// budget ends its start there and then, so the node's only slot is free
// for the very next new-session — without waiting out the abandoned
// start's WAN stage, which the timeout cancelled.
func TestTimedOutNewSessionFreesSlotAtOnce(t *testing.T) {
	srv := NewServer(1)
	l := NewLocal(srv)
	for _, p := range []AddNodeParams{
		{Name: "front", Site: "nwu", Roles: []string{"front-end"}},
		{Name: "compute", Site: "nwu", Roles: []string{"compute"}, Slots: 1, DHCPPrefix: "10.1.0."},
		{Name: "images", Site: "ufl", Roles: []string{"image-server"}},
	} {
		if err := l.AddNode(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, link := range []ConnectParams{{A: "front", B: "compute", Kind: "lan"}, {A: "compute", B: "images", Kind: "wan"}, {A: "front", B: "images", Kind: "wan"}} {
		if err := l.Connect(link.A, link.B, link.Kind); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.InstallImage(InstallImageParams{Node: "images", Name: "huge", OS: "rh", DiskBytes: 200 << 30, MemBytes: 128 << 20}); err != nil {
		t.Fatal(err)
	}
	if err := l.InstallImage(InstallImageParams{Node: "compute", Name: "rh72", OS: "rh", MemBytes: 128 << 20}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.NewSession(SessionParams{
		User: "slow", FrontEnd: "front", Image: "huge",
		Mode: "reboot", Disk: "non-persistent", Access: "staged",
	}); err == nil || !strings.Contains(err.Error(), "exceeded 4h0m0s of virtual time") {
		t.Fatalf("staging 200 GB over a WAN = %v, want the 4 h budget exceeded", err)
	}
	info, err := l.NewSession(SessionParams{
		User: "next", FrontEnd: "front", Image: "rh72",
		Mode: "reboot", Disk: "non-persistent", Access: "local",
	})
	if err != nil {
		t.Fatalf("second session straight after the timeout: %v", err)
	}
	if info.Node != "compute" {
		t.Errorf("second session on %q, want compute", info.Node)
	}
	// The abandoned start's stage lands eventually; it must not bring a
	// session up or take the slot back from the second one.
	srv.mu.Lock()
	_ = srv.Grid().Kernel().RunFor(100 * sim.Hour)
	live := srv.Grid().LiveSessions()
	var procs []string
	for _, p := range srv.Grid().Node("compute").Host().Procs() {
		procs = append(procs, p.Name())
	}
	srv.mu.Unlock()
	if len(live) != 1 || live[0].Name() != info.Name {
		t.Errorf("live sessions after the stage landed: %d, want only %s", len(live), info.Name)
	}
	// Nor may it build a VM next to the second session's.
	if len(procs) != 1 || procs[0] != "vmm:"+info.Name {
		t.Errorf("compute processes after the stage landed: %v, want the second session's VM only", procs)
	}
}

// TestRunBeyondClockRange: work longer than the virtual clock can hold
// (the clock ends near 9.2e12 s) must not finish at once, with or
// without guest I/O along the way. Its completion, like a stalled
// task's, is never scheduled. A run that fails cancels its task, so a
// 10 s run in the same session takes as long after the failed runs as
// before them.
func TestRunBeyondClockRange(t *testing.T) {
	c := startServer(t)
	buildFabric(t, c)
	info, err := c.NewSession(SessionParams{
		User: "alice", FrontEnd: "front", Image: "rh72",
		Mode: "restore", Disk: "non-persistent", Access: "local",
		DataNode: "data", DataFile: "dataset",
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := RunParams{Session: info.Name, Name: "ref", CPUSeconds: 10}
	before, err := c.Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	const idle = "simulation idle before operation completed"
	for _, tc := range []struct {
		p    RunParams
		want string
	}{
		// Nothing is left to happen on this otherwise quiet grid.
		{RunParams{Session: info.Name, Name: "cpu", CPUSeconds: 1e13}, idle},
		// The one I/O, halfway through, also lies past the clock's end.
		{RunParams{Session: info.Name, Name: "far-io", CPUSeconds: 1e14, RootOps: 1}, idle},
		// The first of ten I/Os is in range, but far past the budget.
		{RunParams{Session: info.Name, Name: "io", CPUSeconds: 1e13, RootOps: 10},
			"exceeded 100h0m0s of virtual time"},
	} {
		res, err := c.Run(tc.p)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: run = %+v, %v; want %q", tc.p.Name, res, err, tc.want)
		}
	}
	after, err := c.Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	if after.ElapsedSec != before.ElapsedSec {
		t.Errorf("10 s run took %v s after the failed runs, %v s before", after.ElapsedSec, before.ElapsedSec)
	}
}
