package vfs

import (
	"fmt"
	"testing"

	"vmgrid/internal/sim"
)

// TestWriteThroughAcksAfterRoundTrip: a write acks only once the server
// has answered, so over a WAN it pays the round trip.
func TestWriteThroughAcksAfterRoundTrip(t *testing.T) {
	w := newWorld(t, true)
	tr := w.dial(t)
	c, _ := NewClient(w.k, tr, WANConfig())
	f := c.Open("out", 0)
	var ackAt sim.Time = -1
	f.Write(0, 64<<10, func() { ackAt = w.k.Now() })
	w.k.Run()
	if ackAt < sim.Time(28*sim.Millisecond) {
		t.Errorf("write-through acked at %v, before the WAN round trip", ackAt)
	}
	if !w.sstore.Has("out") || tr.rpcs != 1 {
		t.Errorf("server has the file: %v, RPCs: %d; want true and 1", w.sstore.Has("out"), tr.rpcs)
	}
}

// TestFenceRejectsWrites: a tripped fence fails write RPCs without
// touching the transport, while reads keep flowing (a superseded
// incarnation may still page in, it just may not mutate shared state).
func TestFenceRejectsWrites(t *testing.T) {
	w := newWorld(t, false)
	tr := w.dial(t)
	cfg := LANConfig()
	fenced := false
	fenceErr := fmt.Errorf("fenced epoch")
	cfg.Fence = func() error {
		if fenced {
			return fenceErr
		}
		return nil
	}
	c, err := NewClient(w.k, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := c.Open("data", 1<<20)

	// Open fence: the write reaches the server.
	f.Write(0, 64<<10, nil)
	w.k.Run()
	if !w.sstore.Has("data") || tr.rpcs != 1 {
		t.Fatalf("write with open fence: server has the file %v after %d RPCs, want true after 1",
			w.sstore.Has("data"), tr.rpcs)
	}
	before := c.TransportErrors()

	// Tripped fence: the write is rejected locally, and its writer still
	// hears the (failed) ack.
	fenced = true
	acked := false
	f.Write(64<<10, 64<<10, func() { acked = true })
	w.k.Run()
	if !acked {
		t.Fatal("a fenced write must still complete")
	}
	if tr.rpcs != 1 {
		t.Errorf("%d RPCs, want 1: a fenced write must not reach the transport", tr.rpcs)
	}
	if c.TransportErrors() != before+1 {
		t.Errorf("transport errors = %d, want %d (the fenced write)", c.TransportErrors(), before+1)
	}

	// Reads are unaffected.
	readDone := false
	f.Read(0, 4<<10, func() { readDone = true })
	w.k.Run()
	if !readDone {
		t.Error("read blocked by a write fence")
	}
}
