package netsim

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"vmgrid/internal/sim"
)

func TestSendSingleHopTiming(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	n.AddNode("a")
	n.AddNode("b")
	if err := n.Connect("a", "b", 10*sim.Millisecond, 1e6); err != nil {
		t.Fatal(err)
	}
	var at sim.Time = -1
	if err := n.Send("a", "b", 1e6, "hi", func(p any) {
		if p != "hi" {
			t.Errorf("payload = %v", p)
		}
		at = k.Now()
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
	want := sim.Time(sim.Second + 10*sim.Millisecond) // 1 MB at 1 MB/s + latency
	if at != want {
		t.Fatalf("delivery at %v, want %v", at, want)
	}
}

func TestSendToSelfIsImmediate(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	n.AddNode("a")
	delivered := false
	if err := n.Send("a", "a", 1e9, nil, func(any) { delivered = true }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !delivered || k.Now() != 0 {
		t.Errorf("self-send delivered=%v at %v", delivered, k.Now())
	}
}

// TestDeliveryRunsInsideArrivalHop pins when a handler runs. A remote
// message's handler runs inside the event of its last hop: at the
// arrival instant, ahead of an event queued for that instant after the
// send, and with one kernel event per link crossed. A self-send is the
// exception: its handler is deferred to a zero-delay event, so the
// caller's code after Send runs first.
func TestDeliveryRunsInsideArrivalHop(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	for _, name := range []string{"a", "b", "c"} {
		n.AddNode(name)
	}
	if err := n.ConnectLAN("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := n.ConnectLAN("b", "c"); err != nil {
		t.Fatal(err)
	}

	t.Run("before-same-instant-peer", func(t *testing.T) {
		arrival, err := n.Latency("a", "b", 1<<10)
		if err != nil {
			t.Fatal(err)
		}
		at := k.Now().Add(arrival)
		var order []string
		if err := n.Send("a", "b", 1<<10, nil, func(any) {
			if k.Now() != at {
				t.Errorf("handler ran at %v, want the arrival instant %v", k.Now(), at)
			}
			order = append(order, "handler")
		}); err != nil {
			t.Fatal(err)
		}
		k.At(at, func() { order = append(order, "peer") })
		k.Run()
		if want := []string{"handler", "peer"}; !slices.Equal(order, want) {
			t.Errorf("order = %v, want %v", order, want)
		}
	})

	for _, tc := range []struct {
		dst  string
		hops uint64
	}{{"b", 1}, {"c", 2}} {
		t.Run("events-a-"+tc.dst, func(t *testing.T) {
			before := k.Dispatched()
			delivered := false
			if err := n.Send("a", tc.dst, 1<<10, nil, func(any) { delivered = true }); err != nil {
				t.Fatal(err)
			}
			k.Run()
			if !delivered {
				t.Fatal("not delivered")
			}
			if got := k.Dispatched() - before; got != tc.hops {
				t.Errorf("a->%s dispatched %d events, want %d (one per hop)", tc.dst, got, tc.hops)
			}
		})
	}

	t.Run("self-send-deferred", func(t *testing.T) {
		now, before := k.Now(), k.Dispatched()
		delivered := false
		if err := n.Send("a", "a", 1<<10, nil, func(any) {
			if k.Now() != now {
				t.Errorf("self-send handler ran at %v, want %v", k.Now(), now)
			}
			delivered = true
		}); err != nil {
			t.Fatal(err)
		}
		if delivered {
			t.Fatal("self-send handler ran inside Send")
		}
		if err := k.RunUntil(now); err != nil {
			t.Fatal(err)
		}
		if !delivered {
			t.Fatal("self-send handler did not run at Now")
		}
		if got := k.Dispatched() - before; got != 1 {
			t.Errorf("self-send dispatched %d events, want 1", got)
		}
	})
}

func TestSendErrors(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	n.AddNode("a")
	n.AddNode("b") // no link
	if err := n.Send("missing", "b", 1, nil, nil); err == nil {
		t.Error("unknown src accepted")
	}
	if err := n.Send("a", "missing", 1, nil, nil); err == nil {
		t.Error("unknown dst accepted")
	}
	err := n.Send("a", "b", 1, nil, nil)
	if !errors.Is(err, ErrNoRoute) {
		t.Errorf("disconnected send = %v, want ErrNoRoute", err)
	}
}

func TestMultiHopRouting(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	for _, name := range []string{"a", "r", "b"} {
		n.AddNode(name)
	}
	if err := n.Connect("a", "r", 5*sim.Millisecond, 1e6); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect("r", "b", 5*sim.Millisecond, 1e6); err != nil {
		t.Fatal(err)
	}
	var at sim.Time = -1
	if err := n.Send("a", "b", 1e5, nil, func(any) { at = k.Now() }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	// Two hops: each 100 ms transmission + 5 ms latency.
	want := sim.Time(2 * (100*sim.Millisecond + 5*sim.Millisecond))
	if at != want {
		t.Fatalf("delivery at %v, want %v", at, want)
	}
}

func TestLatencyMatchesSend(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	if err := n.BuildLAN("a", "b", "c"); err != nil {
		t.Fatal(err)
	}
	n.AddNode("far")
	if err := n.ConnectWAN("c", "far"); err != nil {
		t.Fatal(err)
	}
	lat, err := n.Latency("a", "far", 1500)
	if err != nil {
		t.Fatal(err)
	}
	var at sim.Time = -1
	if err := n.Send("a", "far", 1500, nil, func(any) { at = k.Now() }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if at != sim.Time(lat) {
		t.Fatalf("Send delivered at %v, Latency predicts %v", at, lat)
	}
}

func TestLinkSerializesTransfers(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	n.AddNode("a")
	n.AddNode("b")
	if err := n.Connect("a", "b", 0, 1e6); err != nil {
		t.Fatal(err)
	}
	var first, second sim.Time
	_ = n.Send("a", "b", 1e6, nil, func(any) { first = k.Now() })
	_ = n.Send("a", "b", 1e6, nil, func(any) { second = k.Now() })
	k.Run()
	if first != sim.Time(sim.Second) || second != sim.Time(2*sim.Second) {
		t.Fatalf("deliveries at %v, %v; want 1s, 2s (FIFO wire)", first, second)
	}
}

func TestDirectionsAreIndependent(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	n.AddNode("a")
	n.AddNode("b")
	if err := n.Connect("a", "b", 0, 1e6); err != nil {
		t.Fatal(err)
	}
	var ab, ba sim.Time
	_ = n.Send("a", "b", 1e6, nil, func(any) { ab = k.Now() })
	_ = n.Send("b", "a", 1e6, nil, func(any) { ba = k.Now() })
	k.Run()
	if ab != sim.Time(sim.Second) || ba != sim.Time(sim.Second) {
		t.Fatalf("full-duplex transfers at %v/%v, want 1s each", ab, ba)
	}
}

func TestAddNodeIdempotent(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	a1 := n.AddNode("a")
	a2 := n.AddNode("a")
	if a1 != a2 {
		t.Error("AddNode created a duplicate")
	}
	if len(n.nodes) != 1 || len(n.byID) != 1 {
		t.Errorf("%d named nodes, %d ids; want 1 each", len(n.nodes), len(n.byID))
	}
}

func TestBuildLANFullMesh(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	if err := n.BuildLAN("a", "b", "c", "d"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c", "d"} {
		if got := len(n.Node(name).links); got != 3 {
			t.Errorf("node %s degree = %d, want 3", name, got)
		}
	}
}

// Property: in an arbitrary connected chain, delivery time equals the
// Latency prediction for any message size.
func TestChainLatencyProperty(t *testing.T) {
	prop := func(hopsRaw, sizeRaw uint8) bool {
		hops := int(hopsRaw%5) + 1
		size := int64(sizeRaw) * 100
		k := sim.NewKernel(4)
		n := New(k)
		names := make([]string, hops+1)
		for i := range names {
			names[i] = string(rune('a' + i))
			n.AddNode(names[i])
		}
		for i := 0; i < hops; i++ {
			if err := n.Connect(names[i], names[i+1], sim.Millisecond, 1e6); err != nil {
				return false
			}
		}
		want, err := n.Latency(names[0], names[hops], size)
		if err != nil {
			return false
		}
		var at sim.Time = -1
		if err := n.Send(names[0], names[hops], size, nil, func(any) { at = k.Now() }); err != nil {
			return false
		}
		k.Run()
		return at == sim.Time(want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTopologyChangeRecomputesRoutes(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	n.AddNode("a")
	n.AddNode("b")
	if err := n.Send("a", "b", 1, nil, nil); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("expected no route, got %v", err)
	}
	if err := n.ConnectLAN("a", "b"); err != nil {
		t.Fatal(err)
	}
	delivered := false
	if err := n.Send("a", "b", 1, nil, func(any) { delivered = true }); err != nil {
		t.Fatalf("send after connect: %v", err)
	}
	k.Run()
	if !delivered {
		t.Error("message not delivered after topology change")
	}
}
