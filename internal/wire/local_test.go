package wire

import (
	"strings"
	"testing"
)

func TestLocalClientFullFlow(t *testing.T) {
	srv := NewServer(1)
	l := NewLocal(srv)

	if err := l.AddNode(AddNodeParams{Name: "front", Site: "s", Roles: []string{"front-end"}}); err != nil {
		t.Fatal(err)
	}
	if err := l.AddNode(AddNodeParams{
		Name: "c1", Site: "s", Roles: []string{"compute"}, Slots: 1, DHCPPrefix: "10.0.0.",
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Connect("front", "c1", "lan"); err != nil {
		t.Fatal(err)
	}
	if err := l.InstallImage(InstallImageParams{
		Node: "c1", Name: "rh72", OS: "rh", DiskBytes: 1 << 30, MemBytes: 128 << 20,
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.CreateData(CreateDataParams{Node: "c1", File: "d", Bytes: 1 << 20}); err != nil {
		t.Fatal(err)
	}

	info, err := l.NewSession(SessionParams{
		User: "u", FrontEnd: "front", Image: "rh72",
		Mode: "restore", Disk: "non-persistent", Access: "local",
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.State != "running" {
		t.Errorf("state = %q", info.State)
	}

	res, err := l.Run(RunParams{Session: info.Name, Name: "j", CPUSeconds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.UserSec != 5 {
		t.Errorf("user = %v", res.UserSec)
	}

	st, err := l.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Nodes) != 2 || len(st.Sessions) != 1 {
		t.Errorf("status: %d nodes, %d sessions", len(st.Nodes), len(st.Sessions))
	}
}

func TestLocalClientErrors(t *testing.T) {
	srv := NewServer(1)
	l := NewLocal(srv)
	if err := l.Call("bogus", nil, nil); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Errorf("bogus op = %v", err)
	}
	if err := l.Connect("x", "y", "lan"); err == nil {
		t.Error("connect unknown nodes accepted")
	}
	// Sessions through Local hit the same validation as over TCP.
	if _, err := l.NewSession(SessionParams{}); err == nil {
		t.Error("empty session params accepted")
	}
	if err := l.Call("run", map[string]any{"session": "nope", "cpuSeconds": 1}, nil); err == nil {
		t.Error("run on unknown session accepted")
	}
	// Missing params payloads are rejected, not crashed on.
	if err := l.Call("add-node", nil, nil); err == nil {
		t.Error("paramless add-node accepted")
	}
	// Staged/loopback keyword coverage through sessionConfig.
	for _, p := range []SessionParams{
		{User: "u", FrontEnd: "x", Image: "i", Disk: "ephemeral"},
		{User: "u", FrontEnd: "x", Image: "i", Access: "carrier-pigeon"},
	} {
		if _, err := l.NewSession(p); err == nil {
			t.Errorf("bad params accepted: %+v", p)
		}
	}
}

// TestLocalWatchRefuses: watch streams over a connection, so an
// in-process client reports that instead of dialing an empty address.
func TestLocalWatchRefuses(t *testing.T) {
	l := NewLocal(NewServer(1))
	called := false
	err := l.Watch(1, 1, func(TopInfo) error { called = true; return nil })
	if err == nil || !strings.Contains(err.Error(), "needs a TCP connection") {
		t.Errorf("in-process watch = %v, want a needs-TCP error", err)
	}
	if called {
		t.Error("in-process watch delivered a frame")
	}
}
