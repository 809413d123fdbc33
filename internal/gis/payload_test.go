package gis

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"vmgrid/internal/netsim"
	"vmgrid/internal/sim"
)

// sentPayload is a deep copy of what one gossip Send carried.
type sentPayload struct {
	from, upTo uint64
	entries    []gossipEntry
}

func copyEntries(in []gossipEntry) []gossipEntry {
	out := make([]gossipEntry, len(in))
	for i, ge := range in {
		ge.e.Attrs = maps.Clone(ge.e.Attrs)
		out[i] = ge
	}
	return out
}

// freePayloads returns the cluster's free list, failing on a cycle (a
// payload recycled twice) or on a listed payload that is still
// referenced or still holds entries.
func freePayloads(t *testing.T, c *Cluster) []*gossipPayload {
	t.Helper()
	var out []*gossipPayload
	seen := map[*gossipPayload]bool{}
	for p := c.free; p != nil; p = p.next {
		if seen[p] {
			t.Fatal("a payload is on the free list twice")
		}
		seen[p] = true
		if p.refs != 0 || len(p.entries) != 0 {
			t.Fatalf("free payload holds %d references and %d entries", p.refs, len(p.entries))
		}
		out = append(out, p)
	}
	return out
}

// TestGossipPayloadsArriveAsSent wraps every link's delivery and checks
// that each pooled payload reaching a peer still holds exactly what its
// sender built for that peer, under a random schedule of quorum writes
// and deletes, symmetric and one-way partitions (whose sends are
// refused), switch ports cut with payloads in flight (which drop them)
// and a rerouted direct link (on which later payloads overtake earlier
// ones). A payload recycled while a message still carries it is refilled
// for another peer or round and fails the check. The pool must also be
// reused: far fewer payloads than deliveries.
func TestGossipPayloadsArriveAsSent(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			k := sim.NewKernel(1)
			net := deltaNet(t, k)
			svc := New(k)
			if err := svc.Register(KindHost, "pre", map[string]any{AttrSite: "nwu"}, 0); err != nil {
				t.Fatal(err)
			}
			c, err := NewCluster(net, svc, deltaReplicas, 0)
			if err != nil {
				t.Fatal(err)
			}
			sent := map[*gossipLink][]sentPayload{}
			delivered := 0
			distinct := map[*gossipPayload]bool{}
			for _, src := range c.reps {
				for _, l := range src.links {
					orig := l.deliver
					l.deliver = func(payload any) {
						p := payload.(*gossipPayload)
						q := sent[l]
						i := 0
						for i < len(q) && (q[i].from != p.from || q[i].upTo != p.upTo) {
							i++
						}
						if i == len(q) {
							t.Fatalf("payload (%d, %d] reached %s but was never sent to it", p.from, p.upTo, l.dst.Node)
						}
						if !reflect.DeepEqual(copyEntries(p.entries), q[i].entries) {
							t.Fatalf("payload (%d, %d] to %s changed in flight:\n got %+v\nwant %+v",
								p.from, p.upTo, l.dst.Node, p.entries, q[i].entries)
						}
						sent[l] = append(q[:i], q[i+1:]...)
						delivered++
						distinct[p] = true
						orig(payload)
					}
				}
			}
			rng := rand.New(rand.NewSource(seed))
			refused := 0
			round := func(faults bool) {
				t.Helper()
				for w := rng.Intn(4); w > 0 && faults; w-- {
					origin := deltaReplicas[rng.Intn(len(deltaReplicas))]
					name := fmt.Sprintf("h%d", rng.Intn(40))
					if rng.Intn(4) == 0 {
						_ = svc.DeregisterFrom(origin, KindVMFuture, name)
					} else {
						_ = svc.RegisterFrom(origin, KindVMFuture, name, map[string]any{AttrSlots: int64(rng.Intn(4))}, 0)
					}
				}
				if faults {
					g := deltaReplicas[rng.Intn(len(deltaReplicas))]
					var err error
					switch rng.Intn(6) {
					case 0:
						err = net.SetNodeUp(g, false)
					case 1:
						err = net.SetNodeDirUp(g, rng.Intn(2) == 0, false)
					case 2:
						err = healDelta(net)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				c.gossip()
				for _, src := range c.reps {
					for _, l := range src.links {
						if _, err := net.Latency(src.Node, l.dst.Node, 0); err != nil {
							refused++
							continue
						}
						sent[l] = append(sent[l], sentPayload{
							from: l.delivered, upTo: src.ver,
							entries: copyEntries(src.appendChangesSince(nil, l.delivered)),
						})
					}
				}
				if faults {
					var err error
					switch rng.Intn(5) {
					case 0:
						err = net.SetLinkUp("sw", deltaReplicas[rng.Intn(len(deltaReplicas))], false)
					case 1:
						err = net.SetLinkUp("g0", "g1", false)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if err := k.RunFor(sim.Duration(300+rng.Intn(1200)) * sim.Millisecond); err != nil && err != sim.ErrStalled {
					t.Fatal(err)
				}
				freePayloads(t, c)
			}
			for r := 0; r < 300; r++ {
				round(true)
			}
			if err := healDelta(net); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < 6; r++ {
				round(false)
			}
			if !c.Converged() {
				t.Fatal("not converged after heal")
			}
			if refused == 0 || net.Drops() == 0 {
				t.Fatalf("schedule exercised %d refused sends and %d in-flight drops, want both", refused, net.Drops())
			}
			if delivered == 0 || 4*len(distinct) > delivered {
				t.Errorf("%d deliveries used %d distinct payloads: the pool is not reused", delivered, len(distinct))
			}
		})
	}
}

func healDelta(net *netsim.Network) error {
	for _, g := range deltaReplicas {
		if err := net.SetNodeUp(g, true); err != nil {
			return err
		}
	}
	return net.SetLinkUp("g0", "g1", true)
}

// TestRefusedGossipPayloadReturnsAtOnce: a replica whose every Send is
// refused hands its payload straight back to the free list, while the
// payloads its peers sent stay referenced until they land.
func TestRefusedGossipPayloadReturnsAtOnce(t *testing.T) {
	k := sim.NewKernel(1)
	net, svc, c := lanCluster(t, k, 3, "g0", "g1", "g2")
	if err := svc.Register(KindHost, "h", map[string]any{AttrSite: "nwu"}, 0); err != nil {
		t.Fatal(err)
	}
	if err := net.SetNodeDirUp("g2", true, false); err != nil { // g2 hears but cannot send
		t.Fatal(err)
	}
	c.gossip()
	if got := len(freePayloads(t, c)); got != 1 {
		t.Fatalf("%d payloads on the free list after a round with one silenced replica, want 1 (its refused payload)", got)
	}
	if err := k.RunFor(sim.Second); err != nil && err != sim.ErrStalled {
		t.Fatal(err)
	}
	// g0 and g1 each sent one payload, shared by both peers at the same
	// watermark; all four deliveries have landed.
	if got := len(freePayloads(t, c)); got != 3 {
		t.Fatalf("%d payloads on the free list once every delivery landed, want 3", got)
	}
	if e, err := c.Replica(2).Lookup(KindHost, "h"); err != nil || e.Str(AttrSite) != "nwu" {
		t.Fatalf("silenced replica lookup: %+v %v", e, err)
	}
}
