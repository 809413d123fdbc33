package gis

import (
	"fmt"
	"math/rand"
	"testing"

	"vmgrid/internal/netsim"
	"vmgrid/internal/sim"
)

// scanNewest is the full meta scan the tracked Replica.newest replaced.
func scanNewest(r *Replica) Stamp {
	var max Stamp
	for _, m := range r.meta {
		if m.st.After(max) {
			max = m.st
		}
	}
	return max
}

// scanLag is Cluster.Lag computed from full scans.
func scanLag(c *Cluster, i int) sim.Duration {
	var newest Stamp
	for _, r := range c.reps {
		if s := scanNewest(r); s.After(newest) {
			newest = s
		}
	}
	mine := scanNewest(c.reps[i])
	if newest.T <= mine.T {
		return 0
	}
	return sim.Duration(newest.T - mine.T)
}

// TestTrackedNewestMatchesScan: after random quorum writes and deletes,
// direct installs of older and newer stamps, partitions, heals, and
// gossip rounds, every replica's tracked newest stamp — and so Lag —
// equals a full scan of its meta map, at 1, 3, and 5 replicas.
func TestTrackedNewestMatchesScan(t *testing.T) {
	for _, n := range []int{1, 3, 5} {
		t.Run(fmt.Sprintf("replicas=%d", n), func(t *testing.T) {
			k := sim.NewKernel(1)
			nodes := []string{"g0", "g1", "g2", "g3", "g4", "far"}
			net := netsim.New(k)
			if err := net.BuildLAN(nodes...); err != nil {
				t.Fatal(err)
			}
			svc := New(k)
			for _, name := range []string{"pre1", "pre2"} { // seeded before replication
				if err := svc.Register(KindHost, name, nil, 0); err != nil {
					t.Fatal(err)
				}
			}
			c, err := NewCluster(net, svc, nodes[:n], 0)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(n)))
			c.Start()
			defer c.Stop()
			sawLag := false
			check := func(step int) {
				t.Helper()
				for i, r := range c.reps {
					if got, want := r.newest, scanNewest(r); got != want {
						t.Fatalf("step %d replica %d: tracked newest %+v, scan %+v", step, i, got, want)
					}
					got, want := c.Lag(i), scanLag(c, i)
					if got != want {
						t.Fatalf("step %d replica %d: Lag %v, scan %v", step, i, got, want)
					}
					sawLag = sawLag || got > 0
				}
			}
			for step := 0; step < 400; step++ {
				origin := nodes[rng.Intn(len(nodes))]
				name := fmt.Sprintf("h%d", rng.Intn(12))
				switch rng.Intn(6) {
				case 0, 1:
					_ = svc.RegisterFrom(origin, KindHost, name, map[string]any{AttrSite: "nwu"}, 0)
				case 2:
					_ = svc.DeregisterFrom(origin, KindHost, name)
				case 3:
					// Direct install of a random, possibly stale, stamp.
					r := c.reps[rng.Intn(n)]
					st := Stamp{T: k.Now() - sim.Time(rng.Intn(3))*sim.Time(sim.Second), Seq: uint64(rng.Intn(int(c.seq) + 2)), Origin: origin}
					r.install(key(KindHost, name), stamped{st: st, del: rng.Intn(2) == 0}, Entry{Kind: KindHost, Name: name})
				case 4:
					_ = net.SetNodeUp(nodes[rng.Intn(5)], rng.Intn(3) > 0)
				case 5:
					// A lone replica never gossips, so its queue may drain.
					if err := k.RunFor(sim.Duration(rng.Intn(1500)) * sim.Millisecond); err != nil && err != sim.ErrStalled {
						t.Fatal(err)
					}
				}
				check(step)
			}
			if n > 1 && !sawLag {
				t.Error("no replica ever lagged; the sequence never exercised a partition")
			}
		})
	}
}
