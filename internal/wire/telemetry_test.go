package wire

import (
	"strings"
	"testing"
)

// scriptedSession builds the standard fabric in process, adds a data
// file of the given size on the data node, and starts one session that
// mounts it as "data".
func scriptedSession(t *testing.T, srv *Server, dataBytes int64) (*Local, string) {
	t.Helper()
	l := NewLocal(srv)
	buildFabric(t, l)
	if err := l.CreateData(CreateDataParams{Node: "data", File: "input", Bytes: dataBytes}); err != nil {
		t.Fatal(err)
	}
	info, err := l.NewSession(SessionParams{
		User: "alice", FrontEnd: "front", Image: "rh72",
		Mode: "restore", Disk: "non-persistent", Access: "local",
		DataNode: "data", DataFile: "input",
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, info.Name
}

// TestDaemonStoresOnlyRuleSeries: the daemon's collector keeps only
// what its alert rules read. After a session has run, the store holds
// session.slowdown for it and nothing else: no node, vfs or registry
// series, since top and metrics read the fabric and the registry
// directly.
func TestDaemonStoresOnlyRuleSeries(t *testing.T) {
	srv := NewServer(1)
	l, sess := scriptedSession(t, srv, 1<<30)
	if _, err := l.Run(RunParams{
		Session: sess, Name: "job", CPUSeconds: 30, PrivPerSec: 50,
		Reads: 8, ReadBytes: 1 << 20, Mount: "data",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Top(); err != nil {
		t.Fatal(err)
	}
	keys := srv.Grid().Telemetry().DB().Keys()
	if want := "session.slowdown{sess=" + sess + "}"; len(keys) != 1 || keys[0] != want {
		t.Fatalf("daemon series = %v, want only %s", keys, want)
	}
}

// TestTopReportsTransportErrors: a data read that fails on the server
// is counted once, by the session's vfs client, and top reports that
// count; the registry holds no second copy of it.
func TestTopReportsTransportErrors(t *testing.T) {
	srv := NewServer(1)
	// A one-block file: the read below is one RPC.
	l, sess := scriptedSession(t, srv, 32<<10)
	top, err := l.Top()
	if err != nil {
		t.Fatal(err)
	}
	if n := top.Sessions[0].VFSTransportErrors; n != 0 {
		t.Fatalf("transport errors before the fault = %d, want 0", n)
	}
	if err := srv.Grid().Node("data").Store().Delete("input"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Run(RunParams{
		Session: sess, Name: "job", CPUSeconds: 1,
		Reads: 1, ReadBytes: 4096, Mount: "data",
	}); err != nil {
		t.Fatal(err)
	}
	if top, err = l.Top(); err != nil {
		t.Fatal(err)
	}
	if n := top.Sessions[0].VFSTransportErrors; n != 1 {
		t.Errorf("top transport errors = %d, want 1", n)
	}
	snap, err := l.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range snap.Counters {
		if strings.Contains(c.Name, "transport") {
			t.Errorf("registry counts transport errors a second time: %s = %g", c.Name, c.Value)
		}
	}
}
