package netsim

import (
	"errors"
	"testing"

	"vmgrid/internal/sim"
)

// TestOneWayRestoreMatchesFreshSquare: healing a muted or a deafened
// node restores the original routes, whatever was recomputed during the
// outage.
func TestOneWayRestoreMatchesFreshSquare(t *testing.T) {
	ref := square(t, sim.NewKernel(1))
	for _, outbound := range []bool{true, false} {
		n := square(t, sim.NewKernel(1))
		if err := n.SetNodeDirUp("c", outbound, false); err != nil {
			t.Fatal(err)
		}
		// Recompute every source against the degraded topology.
		for _, src := range []string{"a", "b", "c", "d"} {
			_, _ = n.Latency(src, "b", 1<<10)
		}
		if err := n.SetNodeDirUp("c", outbound, true); err != nil {
			t.Fatal(err)
		}
		for _, src := range []string{"a", "b", "c", "d"} {
			for _, dst := range []string{"a", "b", "c", "d"} {
				if src == dst {
					continue
				}
				got, _ := n.Latency(src, dst, 1<<10)
				want, _ := ref.Latency(src, dst, 1<<10)
				if got != want {
					t.Errorf("outbound=%v: %s->%s latency %v after restore, want %v", outbound, src, dst, got, want)
				}
			}
		}
	}
}

// TestNodeOneWayMute: an outbound partition silences a node — its sends
// find no route while inbound traffic still lands.
func TestNodeOneWayMute(t *testing.T) {
	k := sim.NewKernel(1)
	n := square(t, k)

	if err := n.SetNodeDirUp("c", true, false); err != nil {
		t.Fatal(err)
	}

	// Inbound still delivers.
	for _, src := range []string{"a", "b", "d"} {
		delivered := false
		if err := n.Send(src, "c", 1<<10, nil, func(any) { delivered = true }); err != nil {
			t.Fatalf("%s->c: %v", src, err)
		}
		k.Run()
		if !delivered {
			t.Fatalf("%s->c not delivered while c is muted", src)
		}
	}

	// Outbound fails with ErrNoRoute.
	err := n.Send("c", "a", 1<<10, nil, func(any) {})
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("c->a while muted: err %v, want ErrNoRoute", err)
	}

	// Heal: c speaks again.
	if err := n.SetNodeDirUp("c", true, true); err != nil {
		t.Fatal(err)
	}
	delivered := false
	if err := n.Send("c", "a", 1<<10, nil, func(any) { delivered = true }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !delivered {
		t.Fatal("c->a not delivered after heal")
	}
}

// TestNodeOneWayDeaf: an inbound partition deafens a node — it can
// still send to its neighbors, but nothing reaches it.
func TestNodeOneWayDeaf(t *testing.T) {
	k := sim.NewKernel(1)
	n := square(t, k)

	if err := n.SetNodeDirUp("c", false, false); err != nil {
		t.Fatal(err)
	}

	// c's outbound links are untouched: a single-hop send to its
	// neighbor b still lands.
	delivered := false
	if err := n.Send("c", "b", 1<<10, nil, func(any) { delivered = true }); err != nil {
		t.Fatalf("c->b: %v", err)
	}
	k.Run()
	if !delivered {
		t.Fatal("c->b not delivered while c is deaf")
	}

	// Everyone else finds no way in.
	for _, src := range []string{"a", "b", "d"} {
		err := n.Send(src, "c", 1<<10, nil, func(any) {})
		if !errors.Is(err, ErrNoRoute) {
			t.Fatalf("%s->c while c is deaf: err %v, want ErrNoRoute", src, err)
		}
	}

	if err := n.SetNodeDirUp("c", false, true); err != nil {
		t.Fatal(err)
	}
	delivered = false
	if err := n.Send("a", "c", 1<<10, nil, func(any) { delivered = true }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !delivered {
		t.Fatal("a->c not delivered after heal")
	}
}
