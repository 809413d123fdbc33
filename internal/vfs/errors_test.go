package vfs

import (
	"fmt"
	"strings"
	"testing"

	"vmgrid/internal/obs"
	"vmgrid/internal/sim"
)

func TestTransportErrorsCountedOnUnknownFile(t *testing.T) {
	w := newWorld(t, false)
	tr, err := NewNetTransport(w.net, "client", "server", w.server)
	if err != nil {
		t.Fatal(err)
	}
	cfg := LANConfig()
	cfg.Trace = obs.New(w.k)
	c, err := NewClient(w.k, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := c.Open("does-not-exist", 1<<20)
	completed := false
	f.Read(0, 4096, func() { completed = true })
	w.k.Run()
	if !completed {
		t.Fatal("read hung on server error")
	}
	if got := c.TransportErrors(); got != 1 {
		t.Errorf("transport errors = %d, want 1 (the server error)", got)
	}
	var notes []string
	for _, sp := range cfg.Trace.Spans() {
		if sp.Track == "vfs" && sp.Cat == "rpc" {
			notes = append(notes, sp.Note)
		}
	}
	if len(notes) != 1 || !strings.Contains(notes[0], ErrUnknownFile.Error()) {
		t.Errorf("rpc span notes = %q, want one naming %q", notes, ErrUnknownFile)
	}
}

func TestTransportErrorsCountedOnPartition(t *testing.T) {
	w := newWorld(t, false)
	tr, err := NewNetTransport(w.net, "client", "server", w.server)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(w.k, tr, LANConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.net.SetLinkUp("client", "server", false); err != nil {
		t.Fatal(err)
	}
	f := c.Open("data", 1<<30)
	completed := false
	f.Read(10<<20, 4096, func() { completed = true })
	w.k.Run()
	if !completed {
		t.Fatal("read hung across a partition")
	}
	if c.TransportErrors() == 0 {
		t.Error("partition error not counted")
	}
}

// TestWriteErrorCounted: a write-through RPC that cannot reach the
// server still acks its writer, and the failure is counted by then.
func TestWriteErrorCounted(t *testing.T) {
	w := newWorld(t, false)
	tr, _ := NewNetTransport(w.net, "client", "server", w.server)
	c, _ := NewClient(w.k, tr, LANConfig())
	if err := w.net.SetLinkUp("client", "server", false); err != nil {
		t.Fatal(err)
	}
	f := c.Open("scratch", 0)
	var errsAtAck uint64
	completed := false
	f.Write(0, 4096, func() { completed, errsAtAck = true, c.TransportErrors() })
	w.k.Run()
	if !completed {
		t.Fatal("write hung")
	}
	if errsAtAck != 1 || c.TransportErrors() != 1 {
		t.Errorf("transport errors = %d at the ack, %d after; want 1 and 1", errsAtAck, c.TransportErrors())
	}
}

func TestHealthySessionHasNoErrors(t *testing.T) {
	w := newWorld(t, false)
	tr, _ := NewNetTransport(w.net, "client", "server", w.server)
	c, _ := NewClient(w.k, tr, LANConfig())
	f := c.Open("data", 1<<30)
	for i := int64(0); i < 8; i++ {
		f.Read(i*(1<<20), 64<<10, nil)
	}
	w.k.Run()
	if c.TransportErrors() != 0 {
		t.Errorf("healthy session recorded %d errors", c.TransportErrors())
	}
}

// scripted loses its first lost RPCs (no reply, ever) and answers every
// later one with err a millisecond on, counting each call.
type scripted struct {
	k     *sim.Kernel
	lost  int
	err   error
	calls int
}

func (t *scripted) issue(done func(error)) {
	t.calls++
	if t.calls > t.lost {
		t.k.After(sim.Millisecond, func() { done(t.err) })
	}
}

func (t *scripted) Read(file string, off, size int64, done func(error))  { t.issue(done) }
func (t *scripted) Write(file string, off, size int64, done func(error)) { t.issue(done) }

// TestRetryDoesNotReissueNAKs: the proxy issues every RPC once, so a
// definitive server NAK completes its read on the one attempt and is counted.
func TestRetryDoesNotReissueNAKs(t *testing.T) {
	cfg := Config{Rsize: 32 << 10, Prefetch: 32 << 10, CacheBytes: 1 << 20}
	k := sim.NewKernel(1)
	nak := &scripted{k: k, err: fmt.Errorf("%w: scripted", ErrUnknownFile)}
	c, err := NewClient(k, nak, cfg)
	if err != nil {
		t.Fatal(err)
	}
	completed := false
	c.Open("ghost", 1<<20).Read(0, 1024, func() { completed = true })
	k.Run()
	if !completed || nak.calls != 1 || c.TransportErrors() != 1 {
		t.Errorf("NAK: completed=%v attempts=%d errors=%d, want true, 1, 1", completed, nak.calls, c.TransportErrors())
	}
}

// TestZeroRetryPolicyKeepsHistoricalBehavior: with no retry policy a lost
// RPC is never reissued and no timeout ends it, so its writer waits.
func TestZeroRetryPolicyKeepsHistoricalBehavior(t *testing.T) {
	cfg := Config{Rsize: 32 << 10, Prefetch: 32 << 10, CacheBytes: 1 << 20}
	k := sim.NewKernel(1)
	lost := &scripted{k: k, lost: 1}
	c, err := NewClient(k, lost, cfg)
	if err != nil {
		t.Fatal(err)
	}
	completed := false
	c.Open("data", 1<<20).Write(0, 1024, func() { completed = true })
	_ = k.RunUntil(k.Now().Add(sim.Hour))
	if completed || lost.calls != 1 {
		t.Errorf("lost RPC: completed=%v attempts=%d, want false and 1", completed, lost.calls)
	}
}
