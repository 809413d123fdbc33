package wire

import (
	"encoding/json"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"vmgrid/internal/retry"
	"vmgrid/internal/sim"
)

// TestCloseDrainsIdleConnections: Close must not wait for clients to
// hang up. An idle connection's handler is blocked in Scan; draining
// aborts that read so Close returns promptly.
func TestCloseDrainsIdleConnections(t *testing.T) {
	srv := NewServer(1)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	// The client now sits idle; its handler is parked in Scan.
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on an idle connection; drain did not abort the blocked read")
	}
	// The drained server no longer answers.
	if err := c.Call("ping", nil, nil); err == nil {
		t.Error("call succeeded against a closed server")
	}
}

// TestCloseRacesNewConnections: a connection accepted around the moment
// of Close must also drain (the draining flag covers registrations that
// miss the Close-time sweep).
func TestCloseRacesNewConnections(t *testing.T) {
	for i := 0; i < 10; i++ {
		srv := NewServer(1)
		if err := srv.Serve("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		addr := srv.Addr()
		go func() {
			if c, err := Dial(addr); err == nil {
				_ = c.Ping()
				defer c.Close()
			}
		}()
		done := make(chan struct{})
		go func() { _ = srv.Close(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Close hung against a racing connection")
		}
	}
}

// TestClientReconnectsAfterServerRestart: a client handle survives its
// server going away and coming back on the same address — the broken
// connection is re-dialed with backoff on a later Call.
func TestClientReconnectsAfterServerRestart(t *testing.T) {
	srv1 := NewServer(1)
	if err := srv1.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv1.Addr()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := NewServer(2)
	if err := srv2.Serve(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	t.Cleanup(func() { _ = srv2.Close() })

	// The first call after the restart may surface the stale
	// connection's ambiguous failure (reply lost after a buffered send
	// is not retried); the one after must have re-dialed.
	var pingErr error
	for i := 0; i < 5; i++ {
		if pingErr = c.Ping(); pingErr == nil {
			break
		}
	}
	if pingErr != nil {
		t.Fatalf("client never reconnected: %v", pingErr)
	}
}

// TestCallTimeoutOnSilentServer: a server that accepts but never
// responds must not hang the client past its per-attempt deadline.
func TestCallTimeoutOnSilentServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(io.Discard, conn) }() // swallow requests, never reply
		}
	}()
	c, err := DialConfig(ln.Addr().String(), Config{
		CallTimeout: 200 * time.Millisecond,
		Retry:       retry.Policy{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if err := c.Ping(); err == nil {
		t.Fatal("ping against a silent server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("call took %v; read deadline not applied", elapsed)
	}
}

// TestDialRetriesAreBounded: with nothing listening, Call fails after
// its attempt budget with a dial error, not an infinite retry loop.
func TestDialRetriesAreBounded(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	c, err := DialConfig(addr, Config{
		DialTimeout: 200 * time.Millisecond,
		Retry:       retry.Policy{MaxAttempts: 2, Backoff: 10 * sim.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = ln.Close() // server vanishes
	start := time.Now()
	var lastErr error
	for i := 0; i < 3; i++ {
		if lastErr = c.Ping(); lastErr == nil {
			t.Fatal("ping succeeded with nothing listening")
		}
	}
	if !strings.Contains(lastErr.Error(), "dial") {
		t.Errorf("err = %v, want a dial failure once the connection is known-broken", lastErr)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("bounded retries took %v", elapsed)
	}
}

// TestOverlongRequestGetsAnError: a request line past the server's cap
// is answered with an error response before the connection closes.
func TestOverlongRequestGetsAnError(t *testing.T) {
	srv := NewServer(1)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The server stops reading at the cap, so the write may fail once it
	// hangs up; only the reply matters.
	go func() {
		line := append([]byte(`{"id":1,"op":"ping","params":"`), make([]byte, maxRequestBytes)...)
		_, _ = conn.Write(append(line, '"', '}', '\n'))
	}()
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var resp Response
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatalf("no response to an over-long request: %v", err)
	}
	if !strings.Contains(resp.Error, "too large") {
		t.Errorf("response error = %q, want a request-too-large error", resp.Error)
	}
}
