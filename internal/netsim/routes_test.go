package netsim

import (
	"errors"
	"testing"

	"vmgrid/internal/sim"
)

// square builds the 4-cycle a-b-c-d-a and primes every source's route
// table, returning the network.
func square(t *testing.T, k *sim.Kernel) *Network {
	t.Helper()
	n := New(k)
	for _, name := range []string{"a", "b", "c", "d"} {
		n.AddNode(name)
	}
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "a"}} {
		if err := n.ConnectLAN(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range []string{"a", "b", "c", "d"} {
		for _, dst := range []string{"a", "b", "c", "d"} {
			if src == dst {
				continue
			}
			if _, err := n.Latency(src, dst, 1<<10); err != nil {
				t.Fatalf("%s->%s: %v", src, dst, err)
			}
		}
	}
	return n
}

// TestLinkFlapReroutesLikeFreshTopology: taking a link down
// mid-experiment reroutes every source around it. On the square, every
// pair still delivers once c-d is down, and every pair's latency
// matches a network built on the degraded topology from the start.
func TestLinkFlapReroutesLikeFreshTopology(t *testing.T) {
	k := sim.NewKernel(1)
	n := square(t, k)

	if err := n.SetLinkUp("c", "d", false); err != nil {
		t.Fatal(err)
	}

	for _, pair := range [][2]string{{"a", "c"}, {"b", "d"}, {"a", "d"}, {"b", "c"}, {"c", "a"}, {"d", "b"}, {"c", "d"}} {
		delivered := false
		if err := n.Send(pair[0], pair[1], 1<<10, nil, func(any) { delivered = true }); err != nil {
			t.Fatalf("%s->%s: %v", pair[0], pair[1], err)
		}
		k.Run()
		if !delivered {
			t.Fatalf("%s->%s not delivered around the dead link", pair[0], pair[1])
		}
	}

	// Correctness cross-check: every pair's latency equals a fresh
	// network built directly on the degraded topology.
	fresh := New(sim.NewKernel(1))
	for _, name := range []string{"a", "b", "c", "d"} {
		fresh.AddNode(name)
	}
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"d", "a"}} {
		if err := fresh.ConnectLAN(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range []string{"a", "b", "c", "d"} {
		for _, dst := range []string{"a", "b", "c", "d"} {
			if src == dst {
				continue
			}
			got, err1 := n.Latency(src, dst, 1<<10)
			want, err2 := fresh.Latency(src, dst, 1<<10)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s->%s: %v / %v", src, dst, err1, err2)
			}
			if got != want {
				t.Errorf("%s->%s latency %v after flap, fresh topology gives %v", src, dst, got, want)
			}
		}
	}
}

// TestLinkRestoreInvalidatesConservatively: bringing the link back up
// restores the original routes (same latencies as a never-flapped
// square), whatever mix of cached and recomputed tables survived.
func TestLinkRestoreInvalidatesConservatively(t *testing.T) {
	k := sim.NewKernel(1)
	n := square(t, k)
	if err := n.SetLinkUp("c", "d", false); err != nil {
		t.Fatal(err)
	}
	// Recompute c and d against the degraded topology.
	if _, err := n.Latency("c", "a", 1<<10); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Latency("d", "a", 1<<10); err != nil {
		t.Fatal(err)
	}
	if err := n.SetLinkUp("c", "d", true); err != nil {
		t.Fatal(err)
	}

	ref := square(t, sim.NewKernel(1))
	for _, src := range []string{"a", "b", "c", "d"} {
		for _, dst := range []string{"a", "b", "c", "d"} {
			if src == dst {
				continue
			}
			got, _ := n.Latency(src, dst, 1<<10)
			want, _ := ref.Latency(src, dst, 1<<10)
			if got != want {
				t.Errorf("%s->%s latency %v after restore, want %v", src, dst, got, want)
			}
		}
	}
}

// TestNodeFlapInOtherComponent: flapping a node down and up leaves
// traffic in a component that could never reach it flowing, and
// traffic through the node flows again once it is back. Two disjoint
// components: p-q and m-x-y (x,y leaves of m).
func TestNodeFlapInOtherComponent(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	for _, name := range []string{"p", "q", "m", "x", "y"} {
		n.AddNode(name)
	}
	for _, e := range [][2]string{{"p", "q"}, {"m", "x"}, {"m", "y"}} {
		if err := n.ConnectLAN(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	// Route x->y through m so the forwarding hop primes m's table too.
	if err := n.Send("x", "y", 1<<10, nil, func(any) {}); err != nil {
		t.Fatal(err)
	}
	k.Run()

	if err := n.SetNodeUp("m", false); err != nil {
		t.Fatal(err)
	}
	if err := n.Send("x", "y", 1<<10, nil, func(any) {}); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("x->y while m is down: err %v, want ErrNoRoute", err)
	}
	if err := n.SetNodeUp("m", true); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{{"p", "q"}, {"x", "y"}} {
		delivered := false
		if err := n.Send(pair[0], pair[1], 1<<10, nil, func(any) { delivered = true }); err != nil {
			t.Fatalf("%s->%s: %v", pair[0], pair[1], err)
		}
		k.Run()
		if !delivered {
			t.Fatalf("%s->%s not delivered after m came back", pair[0], pair[1])
		}
	}
}

// BenchmarkNetsimSend measures the pooled message path end to end: one
// two-hop send (a->b->c on a chain) per iteration, kernel drained. It
// reports the kernel events each send costs: one per hop.
func BenchmarkNetsimSend(b *testing.B) {
	k := sim.NewKernel(1)
	n := New(k)
	for _, name := range []string{"a", "b", "c"} {
		n.AddNode(name)
	}
	if err := n.ConnectLAN("a", "b"); err != nil {
		b.Fatal(err)
	}
	if err := n.ConnectLAN("b", "c"); err != nil {
		b.Fatal(err)
	}
	deliver := func(any) {}
	if err := n.Send("a", "c", 1<<10, nil, deliver); err != nil {
		b.Fatal(err)
	}
	k.Run()
	b.ReportAllocs()
	b.ResetTimer()
	before := k.Dispatched()
	for i := 0; i < b.N; i++ {
		if err := n.Send("a", "c", 1<<10, nil, deliver); err != nil {
			b.Fatal(err)
		}
		k.Run()
	}
	b.ReportMetric(float64(k.Dispatched()-before)/float64(b.N), "events/op")
}

// BenchmarkNetsimReachable measures the two-way reachability test that
// registry quorum writes and placement probes run: one Reachable
// between two nodes of a 5-node LAN, routes cached.
func BenchmarkNetsimReachable(b *testing.B) {
	n := New(sim.NewKernel(1))
	if err := n.BuildLAN("a", "b", "c", "d", "e"); err != nil {
		b.Fatal(err)
	}
	a, e := n.Node("a"), n.Node("e")
	if !n.Reachable(a, e) {
		b.Fatal("a and e do not reach each other")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !n.Reachable(a, e) {
			b.Fatal("a and e do not reach each other")
		}
	}
}
