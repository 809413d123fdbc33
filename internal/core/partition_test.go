package core

import (
	"errors"
	"testing"

	"vmgrid/internal/guest"
	"vmgrid/internal/sim"
	"vmgrid/internal/vmm"
)

// replicate spreads the testbed's registry across the control-plane
// nodes (data is the supervisor's stable node and replica home).
func replicate(t *testing.T, g *Grid) {
	t.Helper()
	if _, err := g.EnableGISReplication([]string{"data", "front", "images"}); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionFailoverFencesZombie is the end-to-end fencing story: a
// partitioned (not crashed) host keeps its incarnation running, the
// supervisor fails over behind a quorum epoch bump, and the marooned
// incarnation's late completion is rejected — exactly one result is
// delivered — after which the zombie's slot and address are reclaimed.
func TestPartitionFailoverFencesZombie(t *testing.T) {
	g := testbed(t)
	replicate(t, g)
	s := startSession(t, g, baseConfig())
	sup := superviseSession(t, g, s, SupervisorConfig{CheckpointInterval: 30 * sim.Second})

	var res guest.TaskResult
	completions := 0
	if err := sup.Run(s, guest.MicroTask(600), func(r guest.TaskResult) {
		res = r
		completions++
	}); err != nil {
		t.Fatal(err)
	}
	k := g.Kernel()
	victim := s.Node()
	// Heal only after the zombie's own completion (~620 s): its stale
	// result must be what surfaces and fences it, not the reachability
	// sweep.
	k.After(120*sim.Second, func() { _ = g.Net().SetNodeUp(victim.name, false) })
	k.After(700*sim.Second, func() { _ = g.Net().SetNodeUp(victim.name, true) })

	stepUntil(g, 2*sim.Hour, func() bool {
		return completions > 0 && sup.stats.FencedResults > 0
	})
	st := sup.Stats()
	if completions != 1 {
		t.Fatalf("completions = %d, want exactly 1 (fencing must reject the zombie's)", completions)
	}
	if res.Err != nil {
		t.Fatalf("task error: %v", res.Err)
	}
	if res.UserSeconds != 600 {
		t.Errorf("UserSeconds = %v, want the full 600", res.UserSeconds)
	}
	if st.FencedResults != 1 {
		t.Errorf("fenced results = %d, want 1", st.FencedResults)
	}
	if st.ZombiesFenced != 1 {
		t.Errorf("zombies fenced = %d, want 1", st.ZombiesFenced)
	}
	if st.Crashes != 1 || st.Recoveries != 1 {
		t.Errorf("crashes/recoveries = %d/%d, want 1/1", st.Crashes, st.Recoveries)
	}
	if s.Epoch() < 1 {
		t.Errorf("session epoch = %d, want bumped by the failover", s.Epoch())
	}
	if s.State() != StateRunning {
		t.Errorf("state = %q after partition failover", s.State())
	}
	if s.Node() == victim {
		t.Error("session still on the partitioned host")
	}
	for _, ev := range []string{"partitioned", "recovered", "fenced"} {
		if s.EventAt(ev) < 0 {
			t.Errorf("missing %q step; events: %v", ev, s.Events())
		}
	}
	// The fenced zombie gave back what it held on the old host.
	if victim.Slots() != 2 {
		t.Errorf("victim slots = %d, want 2 after the zombie was fenced", victim.Slots())
	}
	if victim.dhcp.Leased() != 0 {
		t.Errorf("victim leaked %d DHCP leases", victim.dhcp.Leased())
	}
	// Post-heal anti-entropy reconverges the registry.
	cl := g.Info().Cluster()
	stepUntil(g, sim.Minute, cl.Converged)
	if !cl.Converged() {
		t.Error("replicas did not reconverge after heal")
	}
	if cl.MinorityWrites() == 0 {
		t.Error("no minority-side writes recorded during the partition")
	}
	sup.Stop()
	checkNoLeaks(t, g)
}

// TestZombieSweepReclaimsZombieOnHeal covers the other fencing
// trigger: a zombie that never finishes (here the heal lands long
// before its task would) produces no stale result, so the supervisor's
// heartbeat sweep must notice the host answering again and reclaim the
// marooned incarnation by reachability alone.
func TestZombieSweepReclaimsZombieOnHeal(t *testing.T) {
	g := testbed(t)
	replicate(t, g)
	s := startSession(t, g, baseConfig())
	sup := superviseSession(t, g, s, SupervisorConfig{CheckpointInterval: 30 * sim.Second})

	completions := 0
	if err := sup.Run(s, guest.MicroTask(600), func(guest.TaskResult) {
		completions++
	}); err != nil {
		t.Fatal(err)
	}
	k := g.Kernel()
	victim := s.Node()
	k.After(120*sim.Second, func() { _ = g.Net().SetNodeUp(victim.name, false) })
	k.After(300*sim.Second, func() { _ = g.Net().SetNodeUp(victim.name, true) })

	stepUntil(g, 2*sim.Hour, func() bool {
		return completions > 0 && sup.stats.ZombiesFenced > 0
	})
	st := sup.Stats()
	if completions != 1 {
		t.Fatalf("completions = %d, want exactly 1", completions)
	}
	if st.ZombiesFenced != 1 {
		t.Errorf("zombies fenced = %d, want 1 (by the heal sweep)", st.ZombiesFenced)
	}
	if st.FencedResults != 0 {
		t.Errorf("fenced results = %d, want 0 (the sweep killed the VM first)", st.FencedResults)
	}
	if victim.Slots() != 2 {
		t.Errorf("victim slots = %d, want 2 after the sweep", victim.Slots())
	}
	if victim.dhcp.Leased() != 0 {
		t.Errorf("victim leaked %d DHCP leases", victim.dhcp.Leased())
	}
	sup.Stop()
	checkNoLeaks(t, g)
}

// TestMinoritySupervisorBacksOff pins the quorum on the session's side
// of the partition: the supervisor's stable node is the isolated one,
// so the epoch bump finds no quorum and no failover happens — the task
// completes on the original host once nothing fences it.
func TestMinoritySupervisorBacksOff(t *testing.T) {
	g := testbed(t)
	replicate(t, g)
	s := startSession(t, g, baseConfig())
	sup := superviseSession(t, g, s, SupervisorConfig{CheckpointInterval: 30 * sim.Second})

	var res guest.TaskResult
	completions := 0
	if err := sup.Run(s, guest.MicroTask(300), func(r guest.TaskResult) {
		res = r
		completions++
	}); err != nil {
		t.Fatal(err)
	}
	k := g.Kernel()
	// Isolate the stable node (replica home "data"): the host still
	// reaches front+images (2 of 3), so its renewals keep quorum, while
	// any failover the data-side supervisor wanted could not fence.
	k.After(60*sim.Second, func() { _ = g.Net().SetNodeUp("data", false) })
	k.After(240*sim.Second, func() { _ = g.Net().SetNodeUp("data", true) })

	stepUntil(g, 2*sim.Hour, func() bool { return completions > 0 })
	if completions != 1 || res.Err != nil {
		t.Fatalf("completions = %d err = %v, want one clean completion", completions, res.Err)
	}
	if st := sup.Stats(); st.Recoveries != 0 || st.FencedResults != 0 {
		t.Errorf("stats = %+v, want no failover for a healthy majority-side host", st)
	}
	if s.Epoch() != 0 {
		t.Errorf("epoch = %d, want 0 (never fenced)", s.Epoch())
	}
	sup.Stop()
	checkNoLeaks(t, g)
}

// TestCrashMidFailoverSlotInvariant crashes the failover target while
// the checkpoint is being restaged onto it, then reboots it. The
// reserved slot's release must not mint capacity the reboot already
// restored: at the end every compute node holds exactly
// capacity - hosted sessions.
func TestCrashMidFailoverSlotInvariant(t *testing.T) {
	g := testbed(t)
	s := startSession(t, g, baseConfig())
	sup := superviseSession(t, g, s, SupervisorConfig{CheckpointInterval: 30 * sim.Second})

	var res guest.TaskResult
	finished := false
	if err := sup.Run(s, guest.MicroTask(600), func(r guest.TaskResult) {
		res = r
		finished = true
	}); err != nil {
		t.Fatal(err)
	}
	k := g.Kernel()
	victim := s.Node().Name()
	target := "compute2"
	if victim == "compute2" {
		target = "compute1"
	}
	k.After(120*sim.Second, func() { _ = g.CrashNode(victim) })
	// Lease TTL is 6 s, so detection lands ~126-128 s; the restage onto
	// the target is in flight at 129 s.
	k.After(129*sim.Second, func() { _ = g.CrashNode(target) })
	k.After(150*sim.Second, func() { _ = g.RebootNode(target) })
	k.After(420*sim.Second, func() { _ = g.RebootNode(victim) })

	// Continuously assert the invariant while the crash/reboot/retry
	// machinery churns: slots over capacity mean a stale release minted
	// one.
	overMint := false
	var tick func()
	tick = func() {
		for _, name := range []string{"compute1", "compute2"} {
			if g.Node(name).Slots() > 2 {
				overMint = true
			}
		}
		if !finished {
			k.After(5*sim.Second, tick)
		}
	}
	k.After(125*sim.Second, tick)

	stepUntil(g, 2*sim.Hour, func() bool { return finished })
	if !finished {
		t.Fatalf("task never resolved; state %q", s.State())
	}
	if res.Err != nil {
		t.Fatalf("task error: %v", res.Err)
	}
	if overMint {
		t.Error("a compute node advertised more slots than its capacity")
	}
	for _, name := range []string{"compute1", "compute2"} {
		n := g.Node(name)
		hosted := len(g.sessionsOn(n))
		if n.Slots() != 2-hosted {
			t.Errorf("%s slots = %d with %d hosted sessions, want %d",
				name, n.Slots(), hosted, 2-hosted)
		}
	}
	sup.Stop()
	checkNoLeaks(t, g)
}

// TestConnectFailureReleasesLease: a session whose data attachment
// fails after its DHCP lease was granted must give the address back —
// the other half of the crash-mid-failover resource-leak fix.
func TestConnectFailureReleasesLease(t *testing.T) {
	g := testbed(t)
	cfg := baseConfig()
	cfg.DataFile = "no-such-dataset"
	var serr error
	ready := false
	if _, err := g.CreateSession(cfg, func(_ *Session, err error) {
		serr = err
		ready = true
	}); err != nil {
		t.Fatal(err)
	}
	_ = g.Kernel().RunUntil(g.Kernel().Now().Add(30 * sim.Minute))
	if !ready || serr == nil {
		t.Fatalf("session with missing data file did not fail (ready=%v err=%v)", ready, serr)
	}
	for _, name := range []string{"compute1", "compute2"} {
		if n := g.Node(name); n.dhcp.Leased() != 0 {
			t.Errorf("%s holds %d leases after failed connect", name, n.dhcp.Leased())
		}
	}
	checkNoLeaks(t, g)
}

// TestReplicatedGridPreservesGoldenPath: with replication enabled but
// no faults, the crash-failover scenario behaves exactly as the
// unreplicated one — same merged result, same stats — because quorum
// writes on a healthy fabric always succeed.
func TestReplicatedGridPreservesGoldenPath(t *testing.T) {
	run := func(replicated bool) (guest.TaskResult, SupervisorStats) {
		g := testbed(t)
		if replicated {
			replicate(t, g)
		}
		s := startSession(t, g, baseConfig())
		sup := superviseSession(t, g, s, SupervisorConfig{CheckpointInterval: 30 * sim.Second})
		var res guest.TaskResult
		done := false
		if err := sup.Run(s, guest.MicroTask(300), func(r guest.TaskResult) {
			res = r
			done = true
		}); err != nil {
			t.Fatal(err)
		}
		stepUntil(g, 2*sim.Hour, func() bool { return done })
		if !done {
			t.Fatal("task never finished")
		}
		checkNoLeaks(t, g)
		sup.Stop()
		return res, sup.Stats()
	}
	plainRes, plainStats := run(false)
	replRes, replStats := run(true)
	if plainRes != replRes {
		t.Errorf("results diverge with replication on a healthy fabric:\n  %+v\n  %+v", plainRes, replRes)
	}
	if plainStats != replStats {
		t.Errorf("stats diverge with replication on a healthy fabric:\n  %+v\n  %+v", plainStats, replStats)
	}
	if errors.Is(plainRes.Err, ErrNoQuorum) {
		t.Error("healthy fabric produced a quorum error")
	}
}

// checkNoLeaks checks the slot and lease invariants on every live
// compute node: its free slots plus its listed incarnations equal its
// capacity, each listed incarnation is the current one of a live
// session or a zombie a supervisor still holds (anything else is a
// leaked slot), and every DHCP lease is the address of a listed
// incarnation. Crashed nodes are skipped: the crash took their pool
// and their slots.
func checkNoLeaks(t *testing.T, g *Grid) {
	t.Helper()
	owned := make(map[*incarnation]bool)
	for _, s := range g.live {
		owned[s.cur] = true
	}
	for _, sup := range g.supervisors {
		for _, c := range sup.charges {
			for _, z := range c.zombies {
				owned[z] = true
			}
		}
	}
	for _, n := range g.order {
		if n.gk == nil || n.crashed {
			continue
		}
		if free := n.Slots(); free < 0 || free+len(n.incs) != n.capacity {
			t.Errorf("%s: %d free + %d listed slots, capacity %d", n.name, free, len(n.incs), n.capacity)
		}
		leases := 0
		for _, in := range n.incs {
			if !owned[in] {
				t.Errorf("%s lists an incarnation nothing owns (leaked slot)", n.name)
			}
			if in.addr == "" {
				continue
			}
			leases++
			if n.dhcp == nil || n.dhcp.Owner(in.addr) == "" {
				t.Errorf("%s: incarnation address %s is not leased", n.name, in.addr)
			}
		}
		if n.dhcp != nil && n.dhcp.Leased() != leases {
			t.Errorf("%s: %d DHCP leases, %d held by listed incarnations", n.name, n.dhcp.Leased(), leases)
		}
	}
}

// maroon runs a supervised 6000 s task, partitions its host 120 s in
// and steps until the failover restored the session elsewhere. It
// returns the partitioned host and the zombie's VM and address, which
// are still live over there.
func maroon(t *testing.T) (g *Grid, s *Session, sup *Supervisor, victim *Node, zombie *vmm.VM, addr string) {
	t.Helper()
	g = testbed(t)
	replicate(t, g)
	s = startSession(t, g, baseConfig())
	sup = superviseSession(t, g, s, SupervisorConfig{CheckpointInterval: 30 * sim.Second})
	if err := sup.Run(s, guest.MicroTask(6000), nil); err != nil {
		t.Fatal(err)
	}
	victim, zombie, addr = s.Node(), s.VM(), s.Addr()
	g.Kernel().After(120*sim.Second, func() { _ = g.Net().SetNodeUp(victim.name, false) })
	stepUntil(g, sim.Hour, func() bool { return sup.Stats().Recoveries == 1 })
	if s.State() != StateRunning || s.Node() == victim || zombie.State() != vmm.StateRunning || addr == "" {
		t.Fatalf("setup: state %q on %s, zombie VM %v, address %q; want a failover away from a running zombie",
			s.State(), s.Node().Name(), zombie.State(), addr)
	}
	return g, s, sup, victim, zombie, addr
}

// TestReleasedChargeStillFencesZombie: a session shut down while its
// old host is partitioned away loses its charge at the next heartbeat,
// but the marooned incarnation must still be swept once the host
// answers — its VM off, its slot and lease back.
func TestReleasedChargeStillFencesZombie(t *testing.T) {
	g, s, sup, victim, zombie, _ := maroon(t)
	s.Shutdown()
	_ = g.Kernel().RunUntil(g.Kernel().Now().Add(10 * sim.Second))
	if sup.charge(s.name) != nil {
		t.Fatal("the heartbeat kept the dead session's charge")
	}
	if err := g.Net().SetNodeUp(victim.name, true); err != nil {
		t.Fatal(err)
	}
	_ = g.Kernel().RunUntil(g.Kernel().Now().Add(sim.Minute))
	if zombie.State() != vmm.StateOff {
		t.Errorf("zombie VM %v after the heal, want off", zombie.State())
	}
	if victim.Slots() != 2 || victim.dhcp.Leased() != 0 {
		t.Errorf("victim has %d of 2 slots free and %d leases, want all back", victim.Slots(), victim.dhcp.Leased())
	}
	if st := sup.Stats(); st.ZombiesFenced != 1 {
		t.Errorf("zombies fenced = %d, want 1", st.ZombiesFenced)
	}
	checkNoLeaks(t, g)
}

// TestCrashPowersOffZombie: crashing a partitioned host kills every VM
// it runs, the marooned incarnation's included, although the session
// now lives elsewhere.
func TestCrashPowersOffZombie(t *testing.T) {
	g, _, sup, victim, zombie, _ := maroon(t)
	if err := g.CrashNode(victim.name); err != nil {
		t.Fatal(err)
	}
	_ = g.Kernel().RunUntil(g.Kernel().Now().Add(sim.Minute))
	if zombie.State() != vmm.StateOff {
		t.Errorf("zombie VM %v on the crashed host, want off", zombie.State())
	}
	if r := victim.Host().Runnable(); r != 0 {
		t.Errorf("crashed host runs %d processes, want 0", r)
	}
	if err := g.RebootNode(victim.name); err != nil {
		t.Fatal(err)
	}
	stepUntil(g, sim.Minute, func() bool { return sup.Stats().ZombiesFenced == 1 })
	if victim.Slots() != 2 {
		t.Errorf("rebooted victim has %d of 2 slots free", victim.Slots())
	}
	checkNoLeaks(t, g)
	sup.Stop()
}

// TestStaleZombieLeavesFreshLeaseAlone: a zombie whose host crashed
// and rebooted surfaces at the next sweep. Its address came from the
// pool the crash lost; the fresh pool may have handed the same address
// to someone else, and fencing the zombie must not free that lease.
func TestStaleZombieLeavesFreshLeaseAlone(t *testing.T) {
	g, _, sup, victim, _, addr := maroon(t)
	if err := g.CrashNode(victim.name); err != nil {
		t.Fatal(err)
	}
	if err := g.RebootNode(victim.name); err != nil {
		t.Fatal(err)
	}
	fresh, err := victim.dhcp.Lease("newcomer")
	if err != nil {
		t.Fatal(err)
	}
	if fresh != addr {
		t.Fatalf("fresh lease %s, want the zombie's old %s (the repro needs the collision)", fresh, addr)
	}
	stepUntil(g, sim.Minute, func() bool { return sup.Stats().ZombiesFenced == 1 })
	if sup.Stats().ZombiesFenced != 1 {
		t.Fatal("the sweep never fenced the zombie")
	}
	if owner := victim.dhcp.Owner(fresh); owner != "newcomer" || victim.dhcp.Leased() != 1 {
		t.Errorf("fresh lease %s owned by %q (%d leased) after the fence, want newcomer's", fresh, owner, victim.dhcp.Leased())
	}
	sup.Stop()
}
