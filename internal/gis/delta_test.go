package gis

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"vmgrid/internal/netsim"
	"vmgrid/internal/sim"
)

// snapshot copies a replica's whole stamped state — the payload every
// gossip round carried before payloads became deltas.
func (r *Replica) snapshot() []gossipEntry {
	out := make([]gossipEntry, 0, len(r.meta))
	for k, m := range r.meta {
		ge := gossipEntry{key: k, stamped: m.stamped}
		if !m.del {
			ge.e = *r.Svc.records[k]
		}
		out = append(out, ge)
	}
	return out
}

// gossipFullState is the reference anti-entropy round: every replica
// pushes its snapshot to every peer, with the same modelled size and
// send order as gossip.
func (c *Cluster) gossipFullState() {
	for _, src := range c.reps {
		snap := src.snapshot()
		size := int64(gossipBaseBytes + gossipPerEntryBytes*len(snap))
		for _, l := range src.links {
			to := l.dst
			_ = c.net.Send(src.Node, to.Node, size, snap, func(payload any) {
				to.merge(payload.([]gossipEntry))
			})
		}
	}
}

var deltaReplicas = []string{"g0", "g1", "g2", "g3", "g4"}

// deltaNet wires the replicas to a switch over LAN links, plus a slow
// direct g0-g1 link: routing prefers the one-hop slow path, so taking it
// down mid-flight lets later payloads overtake earlier ones via the
// switch.
func deltaNet(t *testing.T, k *sim.Kernel) *netsim.Network {
	t.Helper()
	net := netsim.New(k)
	net.AddNode("sw")
	for _, g := range deltaReplicas {
		net.AddNode(g)
		if err := net.ConnectLAN("sw", g); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.Connect("g0", "g1", 2500*sim.Millisecond, netsim.LANBandwidthBps); err != nil {
		t.Fatal(err)
	}
	return net
}

// requireSameState fails unless every replica of got holds exactly the
// stamps and records of the same replica of want.
func requireSameState(t *testing.T, round int, got, want *Cluster) {
	t.Helper()
	for i := range want.reps {
		g, w := got.reps[i], want.reps[i]
		if len(g.meta) != len(w.meta) {
			t.Fatalf("round %d replica %d: %d keys, reference %d", round, i, len(g.meta), len(w.meta))
		}
		for k, m := range w.meta {
			if gm, ok := g.meta[k]; !ok || gm.stamped != m.stamped {
				t.Fatalf("round %d replica %d key %s: %+v, reference %+v", round, i, k, gm.stamped, m.stamped)
			}
		}
		if !reflect.DeepEqual(g.Svc.records, w.Svc.records) {
			t.Fatalf("round %d replica %d: records differ from the reference", round, i)
		}
	}
}

// TestDeltaGossipMatchesFullState runs delta gossip beside full-state
// gossip on twin networks driven through the same random schedule —
// quorum writes and deletes, symmetric and one-way partitions, links
// cut while payloads are in flight, payloads overtaking each other on
// a rerouted path, and heals — and requires every replica of the two
// clusters to hold identical stamps and records after every round. The
// change log must stay within twice the key count and be empty once
// everything healed has been delivered.
func TestDeltaGossipMatchesFullState(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			k := sim.NewKernel(1)
			nets := [2]*netsim.Network{deltaNet(t, k), deltaNet(t, k)}
			var svcs [2]*Service
			var cls [2]*Cluster
			for i, net := range nets {
				svcs[i] = New(k)
				if err := svcs[i].Register(KindHost, "pre", map[string]any{AttrSite: "nwu"}, 0); err != nil {
					t.Fatal(err)
				}
				c, err := NewCluster(net, svcs[i], deltaReplicas, 0)
				if err != nil {
					t.Fatal(err)
				}
				cls[i] = c
			}
			delta, ref := cls[0], cls[1]
			both := func(f func(net *netsim.Network) error) {
				t.Helper()
				for _, net := range nets {
					if err := f(net); err != nil {
						t.Fatal(err)
					}
				}
			}
			heal := func() {
				both(func(net *netsim.Network) error {
					for _, g := range deltaReplicas {
						if err := net.SetNodeUp(g, true); err != nil {
							return err
						}
					}
					return net.SetLinkUp("g0", "g1", true)
				})
			}
			rng := rand.New(rand.NewSource(seed))
			maxLog := 0
			round := func(r int, faults bool) {
				t.Helper()
				for w := rng.Intn(4); w > 0 && faults; w-- {
					origin := deltaReplicas[rng.Intn(len(deltaReplicas))]
					name := fmt.Sprintf("h%d", rng.Intn(40))
					attrs := map[string]any{AttrSlots: int64(rng.Intn(4))}
					ttl := sim.Duration(rng.Intn(2)) * 30 * sim.Second
					del := rng.Intn(4) == 0
					for _, svc := range svcs {
						if del {
							_ = svc.DeregisterFrom(origin, KindVMFuture, name)
						} else {
							_ = svc.RegisterFrom(origin, KindVMFuture, name, attrs, ttl)
						}
					}
				}
				if faults {
					g := deltaReplicas[rng.Intn(len(deltaReplicas))]
					switch rng.Intn(6) {
					case 0: // symmetric partition of one replica
						both(func(net *netsim.Network) error { return net.SetNodeUp(g, false) })
					case 1: // one-way: silence or deafen one replica
						out := rng.Intn(2) == 0
						both(func(net *netsim.Network) error { return net.SetNodeDirUp(g, out, false) })
					case 2:
						heal()
					}
				}
				delta.gossip()
				ref.gossipFullState()
				if faults {
					switch rng.Intn(5) {
					case 0: // cut a switch port with payloads on the wire: those bound through it drop
						g := deltaReplicas[rng.Intn(len(deltaReplicas))]
						both(func(net *netsim.Network) error { return net.SetLinkUp("sw", g, false) })
					case 1: // reroute g0-g1 via the switch: later payloads overtake these
						both(func(net *netsim.Network) error { return net.SetLinkUp("g0", "g1", false) })
					}
				}
				if err := k.RunFor(sim.Duration(300+rng.Intn(1200)) * sim.Millisecond); err != nil && err != sim.ErrStalled {
					t.Fatal(err)
				}
				requireSameState(t, r, delta, ref)
				if delta.Converged() != ref.Converged() {
					t.Fatalf("round %d: Converged %v, reference %v", r, delta.Converged(), ref.Converged())
				}
				for i, rep := range delta.reps {
					if len(rep.log) > 2*len(rep.meta) {
						t.Fatalf("round %d replica %d: log %d entries for %d keys", r, i, len(rep.log), len(rep.meta))
					}
					maxLog = max(maxLog, len(rep.log))
				}
			}
			for r := 0; r < 300; r++ {
				round(r, true)
			}
			heal()
			for r := 300; r < 306; r++ {
				round(r, false)
			}
			if !delta.Converged() {
				t.Fatal("not converged after heal")
			}
			if maxLog == 0 {
				t.Error("the log never held an undelivered change")
			}
			delta.gossip() // compacts against the watermarks the last round advanced
			for i, rep := range delta.reps {
				if len(rep.log) != 0 {
					t.Errorf("replica %d: %d log entries after heal, want 0", i, len(rep.log))
				}
			}
			if nets[0].Drops() == 0 {
				t.Error("no payload was ever dropped in flight")
			}
		})
	}
}

// TestClusterRestartRunsOneGossipLoop: Stop then Start within one
// interval must leave a single round chain — the canceled pending round
// may not keep ticking beside the new one.
func TestClusterRestartRunsOneGossipLoop(t *testing.T) {
	k := sim.NewKernel(1)
	net, _, c := lanCluster(t, k, 3, "g0", "g1", "g2")
	// Nothing is written, so every round sends the same bytes: each
	// replica's full-state size to each peer.
	var perRound uint64
	for _, r := range c.reps {
		perRound += uint64(len(r.links) * (gossipBaseBytes + gossipPerEntryBytes*len(r.meta)))
	}
	c.Start()
	if err := k.RunFor(2500 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	c.Stop()
	c.Start()
	before := net.BytesSent()
	if err := k.RunFor(10300 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := net.BytesSent() - before; got != 10*perRound {
		t.Errorf("%d gossip bytes in the 10 s after a restart, want 10 rounds of %d", got, perRound)
	}
	c.Stop()
	if err := k.RunFor(5 * sim.Second); err != nil && err != sim.ErrStalled {
		t.Fatal(err)
	}
	if got := net.BytesSent() - before; got != 10*perRound {
		t.Errorf("%d gossip bytes after Stop, want none beyond the 10 rounds' %d", got, 10*perRound)
	}
}

// BenchmarkGossipRound is one anti-entropy round of a 5-replica cluster
// holding 300 records, with 3 writes since the previous round: the
// round's sends plus the deliveries they cause.
func BenchmarkGossipRound(b *testing.B) {
	k := sim.NewKernel(1)
	net := netsim.New(k)
	if err := net.BuildLAN(deltaReplicas...); err != nil {
		b.Fatal(err)
	}
	svc := New(k)
	c, err := NewCluster(net, svc, deltaReplicas, 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := svc.Register(KindVMFuture, fmt.Sprintf("h%03d", i), map[string]any{AttrSlots: int64(1)}, 0); err != nil {
			b.Fatal(err)
		}
	}
	attrs := map[string]any{AttrSlots: int64(2)}
	round := func(i int) {
		for w := 0; w < 3; w++ {
			_ = svc.Register(KindVMFuture, fmt.Sprintf("h%03d", (7*i+w)%300), attrs, 0)
		}
		c.gossip()
		if err := k.RunFor(sim.Second); err != nil && err != sim.ErrStalled {
			b.Fatal(err)
		}
	}
	round(0) // deliver the registrations
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(i + 1)
	}
}
