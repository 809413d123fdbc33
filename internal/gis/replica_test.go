package gis

import (
	"errors"
	"testing"

	"vmgrid/internal/netsim"
	"vmgrid/internal/sim"
)

// lanCluster builds a LAN of the named nodes and replicates a fresh
// registry across the first n of them.
func lanCluster(t *testing.T, k *sim.Kernel, n int, nodes ...string) (*netsim.Network, *Service, *Cluster) {
	t.Helper()
	net := netsim.New(k)
	if err := net.BuildLAN(nodes...); err != nil {
		t.Fatal(err)
	}
	svc := New(k)
	c, err := NewCluster(net, svc, nodes[:n], 0)
	if err != nil {
		t.Fatal(err)
	}
	return net, svc, c
}

// TestClusterOfOneDegenerates: a single replica is today's unreplicated
// registry — every write from anywhere succeeds (quorum of 1 is 1),
// reads are never stale, and the view is trivially converged. The
// experiment goldens rely on this degeneration.
func TestClusterOfOneDegenerates(t *testing.T) {
	k := sim.NewKernel(1)
	net, svc, c := lanCluster(t, k, 1, "g0", "far")

	if err := svc.RegisterFrom("far", KindHost, "h1", map[string]any{AttrSite: "nwu"}, 0); err != nil {
		t.Fatal(err)
	}
	// Even a fully partitioned origin cannot lose quorum against itself
	// being the only judge — but an origin that cannot reach the lone
	// replica must still fail closed.
	if err := net.SetNodeUp("far", false); err != nil {
		t.Fatal(err)
	}
	if err := svc.RegisterFrom("far", KindHost, "h2", nil, 0); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("partitioned origin against lone replica: err %v, want ErrNoQuorum", err)
	}
	// Writes from the replica's own node always work.
	if err := svc.Register(KindHost, "h3", nil, 0); err != nil {
		t.Fatal(err)
	}
	if !c.Converged() {
		t.Error("cluster of one not converged")
	}
	if _, err := c.Replica(0).Lookup(KindHost, "h1"); err != nil {
		t.Errorf("lookup: %v", err)
	}
}

// TestClusterOfTwoSplitFailsClosed: with two replicas a split leaves
// both sides at 1 of 2 — neither reaches a majority, so writes fail on
// both sides (no quorum is possible, the safe degenerate of even N).
func TestClusterOfTwoSplitFailsClosed(t *testing.T) {
	k := sim.NewKernel(1)
	net, svc, c := lanCluster(t, k, 2, "g0", "g1")

	if err := svc.Register(KindHost, "pre", nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := net.SetLinkUp("g0", "g1", false); err != nil {
		t.Fatal(err)
	}
	for _, origin := range []string{"g0", "g1"} {
		err := svc.RegisterFrom(origin, KindHost, "during", nil, 0)
		if !errors.Is(err, ErrNoQuorum) {
			t.Errorf("write from %s during 1-1 split: err %v, want ErrNoQuorum", origin, err)
		}
	}
	if got := c.MinorityWrites(); got != 2 {
		t.Errorf("MinorityWrites = %d, want 2", got)
	}
	// Reads still serve from either side.
	for i := 0; i < c.Size(); i++ {
		if _, err := c.Replica(i).Lookup(KindHost, "pre"); err != nil {
			t.Errorf("read at %s during split: %v, want the pre-split record", c.Node(i), err)
		}
	}
	// Heal: writes flow again and both replicas converge.
	if err := net.SetLinkUp("g0", "g1", true); err != nil {
		t.Fatal(err)
	}
	if err := svc.RegisterFrom("g1", KindHost, "after", nil, 0); err != nil {
		t.Fatal(err)
	}
	if !c.Converged() {
		t.Error("healed 2-cluster not converged")
	}
}

// TestClusterOfFiveTwoConcurrentPartitions: with five replicas and two
// isolated members, the three-node majority keeps accepting writes and
// the isolated members reject them; gossip reconverges everyone after
// heal, including a deregistration (tombstone) committed during the
// outage.
func TestClusterOfFiveTwoConcurrentPartitions(t *testing.T) {
	k := sim.NewKernel(1)
	nodes := []string{"g0", "g1", "g2", "g3", "g4"}
	net, svc, c := lanCluster(t, k, 5, nodes...)
	c.Start()
	defer c.Stop()

	if err := svc.Register(KindHost, "doomed", nil, 0); err != nil {
		t.Fatal(err)
	}
	// Two concurrent partitions: g3 fully isolated, g4 muted (one-way).
	if err := net.SetNodeUp("g3", false); err != nil {
		t.Fatal(err)
	}
	if err := net.SetNodeDirUp("g4", true, false); err != nil {
		t.Fatal(err)
	}

	// Majority side commits a write and a delete.
	if err := svc.RegisterFrom("g0", KindHost, "boom", map[string]any{AttrSite: "ufl"}, 0); err != nil {
		t.Fatal(err)
	}
	if err := svc.DeregisterFrom("g1", KindHost, "doomed"); err != nil {
		t.Fatal(err)
	}
	// Both isolated members fail closed — the muted g4 too, because a
	// write needs its reply direction.
	for _, origin := range []string{"g3", "g4"} {
		if err := svc.RegisterFrom(origin, KindHost, "minority-"+origin, nil, 0); !errors.Is(err, ErrNoQuorum) {
			t.Errorf("write from %s: err %v, want ErrNoQuorum", origin, err)
		}
	}
	// Minority replicas serve their pre-partition view.
	g3 := c.Replica(3)
	if _, err := g3.Lookup(KindHost, "doomed"); err != nil {
		t.Errorf("g3 read during isolation: %v, want the pre-partition record", err)
	}
	if _, err := g3.Lookup(KindHost, "boom"); !errors.Is(err, ErrNotFound) {
		t.Errorf("g3 sees majority-era write during isolation: %v", err)
	}

	// Let gossip run during the outage: the split must persist (no
	// back-channel), then heal and reconverge.
	if err := k.RunUntil(sim.Time(5 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if c.Converged() {
		t.Fatal("cluster converged across a live partition")
	}
	if err := net.SetNodeUp("g3", true); err != nil {
		t.Fatal(err)
	}
	if err := net.SetNodeDirUp("g4", true, true); err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntil(sim.Time(8 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if !c.Converged() {
		t.Fatal("cluster not converged after heal + gossip")
	}
	// The tombstone won: "doomed" is gone everywhere, "boom" is present.
	for i := 0; i < c.Size(); i++ {
		if _, err := c.Replica(i).Lookup(KindHost, "doomed"); !errors.Is(err, ErrNotFound) {
			t.Errorf("replica %d resurrects deregistered record: %v", i, err)
		}
		if _, err := c.Replica(i).Lookup(KindHost, "boom"); err != nil {
			t.Errorf("replica %d missing majority write after heal: %v", i, err)
		}
	}
}

// TestBumpEpochMonotonicAcrossPartitions: epoch bumps stay strictly
// monotonic because every successful bump's quorum intersects the
// previous one's; a minority-side bump fails without consuming a value.
func TestBumpEpochMonotonicAcrossPartitions(t *testing.T) {
	k := sim.NewKernel(1)
	nodes := []string{"g0", "g1", "g2"}
	net, svc, c := lanCluster(t, k, 3, nodes...)

	e1, err := c.BumpEpoch("g0", "sess")
	if err != nil || e1 != 1 {
		t.Fatalf("first bump = %d, %v", e1, err)
	}
	// Isolate g2; bump from the majority side.
	if err := net.SetNodeUp("g2", false); err != nil {
		t.Fatal(err)
	}
	e2, err := c.BumpEpoch("g1", "sess")
	if err != nil || e2 != 2 {
		t.Fatalf("majority bump = %d, %v", e2, err)
	}
	// Minority bump fails closed.
	if _, err := c.BumpEpoch("g2", "sess"); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("minority bump: err %v, want ErrNoQuorum", err)
	}
	// Heal, then bump from the previously isolated node: it must see 2
	// via quorum intersection and produce 3, not 2 again.
	if err := net.SetNodeUp("g2", true); err != nil {
		t.Fatal(err)
	}
	e3, err := c.BumpEpoch("g2", "sess")
	if err != nil || e3 != 3 {
		t.Fatalf("post-heal bump = %d, %v", e3, err)
	}
	if got := svc.Epoch("sess"); got != 3 {
		t.Errorf("primary view epoch = %d, want 3", got)
	}
}

// TestEpochGuardFencesStaleToken: the guard admits the current epoch
// and rejects an older token with ErrFencedEpoch, allocation-free.
func TestEpochGuardFencesStaleToken(t *testing.T) {
	k := sim.NewKernel(1)
	_, svc, c := lanCluster(t, k, 1, "g0")

	e1, err := c.BumpEpoch("g0", "sess")
	if err != nil {
		t.Fatal(err)
	}
	guard := svc.EpochGuard("sess", e1)
	if err := guard(); err != nil {
		t.Fatalf("current-epoch guard: %v", err)
	}
	if _, err := c.BumpEpoch("g0", "sess"); err != nil {
		t.Fatal(err)
	}
	if err := guard(); !errors.Is(err, ErrFencedEpoch) {
		t.Fatalf("stale-token guard: err %v, want ErrFencedEpoch", err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = guard() }); allocs != 0 {
		t.Errorf("EpochGuard check allocates %v per run, want 0", allocs)
	}
}

// TestLWWStampOrder pins the reconciliation order: time beats sequence
// beats origin.
func TestLWWStampOrder(t *testing.T) {
	a := Stamp{T: 10, Seq: 1, Origin: "a"}
	b := Stamp{T: 9, Seq: 2, Origin: "z"}
	if !a.After(b) || b.After(a) {
		t.Error("later time must win")
	}
	c := Stamp{T: 10, Seq: 2, Origin: "a"}
	if !c.After(a) {
		t.Error("same time: higher seq must win")
	}
	d := Stamp{T: 10, Seq: 2, Origin: "b"}
	if !d.After(c) {
		t.Error("same time+seq: higher origin must win")
	}
}
