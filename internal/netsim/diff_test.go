package netsim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"vmgrid/internal/sim"
)

// refNet is a reference router keyed by node name: per-source next-hop
// maps, the sorted-name BFS, and the invalidation rule (any topology
// change drops every cached route), written out plainly. The
// differential test drives it and a Network through the same topology
// changes and requires the two to agree on every route, every latency,
// every in-flight drop and every BFS they run.
type refNet struct {
	links    map[string]map[string]*refLink // from -> to
	routes   map[string]map[string]string   // src -> dst -> first hop
	computes uint64
}

type refLink struct {
	latency sim.Duration
	bwBps   float64
	down    bool
}

func newRefNet() *refNet {
	return &refNet{links: make(map[string]map[string]*refLink), routes: make(map[string]map[string]string)}
}

func (r *refNet) addNode(name string) {
	if r.links[name] == nil {
		r.links[name] = make(map[string]*refLink)
	}
}

func (r *refNet) connect(a, b string, lat sim.Duration, bw float64) {
	r.links[a][b] = &refLink{latency: lat, bwBps: bw}
	r.links[b][a] = &refLink{latency: lat, bwBps: bw}
	clear(r.routes)
}

func (r *refNet) peers(name string) []string {
	out := make([]string, 0, len(r.links[name]))
	for p := range r.links[name] {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// bfs is one shortest-path computation from src over the live links.
func (r *refNet) bfs(src string) map[string]string {
	next := map[string]string{}
	seen := map[string]bool{src: true}
	queue := []string{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, p := range r.peers(cur) {
			if r.links[cur][p].down || seen[p] {
				continue
			}
			seen[p] = true
			if cur == src {
				next[p] = p
			} else {
				next[p] = next[cur]
			}
			queue = append(queue, p)
		}
	}
	return next
}

func (r *refNet) routesFor(src string) map[string]string {
	if next, ok := r.routes[src]; ok {
		return next
	}
	r.computes++
	next := r.bfs(src)
	r.routes[src] = next
	return next
}

func (r *refNet) setLinkUp(a, b string, up bool) {
	r.links[a][b].down, r.links[b][a].down = !up, !up
	clear(r.routes)
}

func (r *refNet) setNodeDirUp(name string, outbound, up bool) {
	for peer, l := range r.links[name] {
		if outbound {
			l.down = !up
		} else {
			r.links[peer][name].down = !up
		}
	}
	clear(r.routes)
}

func (r *refNet) setNodeUp(name string, up bool) {
	for peer, l := range r.links[name] {
		l.down = !up
		r.links[peer][name].down = !up
	}
	clear(r.routes)
}

func (r *refNet) nextHop(src, dst string) string { return r.routesFor(src)[dst] }

func (r *refNet) reachable(a, b string) bool {
	if a == b {
		return true
	}
	_, ab := r.routesFor(a)[b]
	if !ab {
		return false
	}
	_, ba := r.routesFor(b)[a]
	return ba
}

func (r *refNet) latency(src, dst string, size int64) (sim.Duration, bool) {
	var total sim.Duration
	for cur := src; cur != dst; {
		hop, ok := r.routesFor(cur)[dst]
		if !ok {
			return 0, false
		}
		l := r.links[cur][hop]
		total += l.latency + sim.DurationOf(float64(size)/l.bwBps)
		cur = hop
	}
	return total, true
}

// deliver follows a message that has just landed at hop toward dst,
// consulting the route at every store-and-forward point as Network
// does, and reports whether it arrives.
func (r *refNet) deliver(hop, dst string) bool {
	for cur := hop; cur != dst; {
		next, ok := r.routesFor(cur)[dst]
		if !ok {
			return false
		}
		cur = next
	}
	return true
}

// nextHopName is the Network's first hop from src toward dst, "" for
// none.
func nextHopName(n *Network, src, dst string) string {
	if l := n.Node(src).hopTo(n.Node(dst)); l != nil {
		return l.to.name
	}
	return ""
}

// TestRouterMatchesMapReference drives seeded random topologies through
// link flaps, node-direction failures, node crashes and heals, and nodes added after routes were computed. Each
// step first puts messages on the wire, so the change lands while they
// are in flight. After every step the id-indexed router and the map
// reference must agree, for every (src, dst) pair, on the next hop
// (which must also match a fresh uncached BFS), on Reachable and on
// Latency; and overall on deliveries, Drops and RouteComputes.
func TestRouterMatchesMapReference(t *testing.T) {
	drops := 0
	for seed := int64(1); seed <= 25; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { drops += diffRun(t, seed) })
	}
	if drops == 0 {
		t.Error("no message was dropped in flight: the sweep did not cover mid-flight route loss")
	}
}

// diffRun runs one seeded topology and returns its in-flight drops.
func diffRun(t *testing.T, seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	k := sim.NewKernel(1)
	n := New(k)
	ref := newRefNet()
	var names []string
	type edge struct{ a, b string }
	var edges []edge
	add := func(name string) {
		n.AddNode(name)
		ref.addNode(name)
		names = append(names, name)
	}
	connect := func(a, b string) {
		lat := sim.Duration(1+rng.Intn(20)) * sim.Millisecond
		bw := float64(1+rng.Intn(100)) * 1e6
		if err := n.Connect(a, b, lat, bw); err != nil {
			t.Fatal(err)
		}
		ref.connect(a, b, lat, bw)
		edges = append(edges, edge{a, b})
	}
	// Ids follow insertion order, names a shuffled one, so sorted-name
	// tie-breaking is not id order.
	size := 5 + rng.Intn(6)
	for _, i := range rng.Perm(size) {
		add(fmt.Sprintf("n%02d", i))
	}
	for i := 1; i < size; i++ {
		connect(names[rng.Intn(i)], names[i])
	}
	for extra := rng.Intn(size); extra > 0; extra-- {
		a, b := names[rng.Intn(size)], names[rng.Intn(size)]
		if a != b && n.Node(a).links[b] == nil {
			connect(a, b)
		}
	}

	var delivered, refDelivered, refDrops int
	for step := 0; step < 40; step++ {
		// Messages in flight across the change.
		type flight struct{ hop, dst string }
		var flights []flight
		for m := rng.Intn(6); m > 0; m-- {
			src, dst := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
			err := n.Send(src, dst, int64(rng.Intn(1<<16)), nil, func(any) { delivered++ })
			switch {
			case src == dst:
				refDelivered++
			default:
				hop := ref.nextHop(src, dst)
				if (hop == "") != (err != nil) {
					t.Fatalf("step %d: send %s->%s err %v, reference hop %q", step, src, dst, err, hop)
				}
				if hop != "" {
					flights = append(flights, flight{hop, dst})
				}
			}
		}

		var what string
		switch op := rng.Intn(5); op {
		case 0, 1:
			e := edges[rng.Intn(len(edges))]
			up := rng.Intn(2) == 0
			what = fmt.Sprintf("link %s-%s up=%v", e.a, e.b, up)
			if err := n.SetLinkUp(e.a, e.b, up); err != nil {
				t.Fatal(err)
			}
			ref.setLinkUp(e.a, e.b, up)
		case 2:
			name := names[rng.Intn(len(names))]
			outbound, up := rng.Intn(2) == 0, rng.Intn(2) == 0
			what = fmt.Sprintf("node %s outbound=%v up=%v", name, outbound, up)
			if err := n.SetNodeDirUp(name, outbound, up); err != nil {
				t.Fatal(err)
			}
			ref.setNodeDirUp(name, outbound, up)
		case 3:
			name := names[rng.Intn(len(names))]
			up := rng.Intn(3) > 0
			what = fmt.Sprintf("node %s up=%v", name, up)
			if err := n.SetNodeUp(name, up); err != nil {
				t.Fatal(err)
			}
			ref.setNodeUp(name, up)
		case 4:
			name := fmt.Sprintf("x%02d", step)
			what = "add " + name
			add(name)
			for c := 1 + rng.Intn(2); c > 0; c-- {
				peer := names[rng.Intn(len(names)-1)]
				if n.Node(name).links[peer] == nil {
					connect(name, peer)
				}
			}
		}

		k.Run()
		for _, f := range flights {
			if ref.deliver(f.hop, f.dst) {
				refDelivered++
			} else {
				refDrops++
			}
		}
		if delivered != refDelivered || n.Drops() != uint64(refDrops) {
			t.Fatalf("step %d (%s): delivered %d drops %d, reference %d and %d",
				step, what, delivered, n.Drops(), refDelivered, refDrops)
		}

		for _, src := range names {
			fresh := ref.bfs(src)
			for _, dst := range names {
				got, want := nextHopName(n, src, dst), ref.nextHop(src, dst)
				if got != want || want != fresh[dst] {
					t.Fatalf("step %d (%s): next hop %s->%s = %q, reference %q, fresh BFS %q",
						step, what, src, dst, got, want, fresh[dst])
				}
				a, b := n.Node(src), n.Node(dst)
				if got, want := n.Reachable(a, b), ref.reachable(src, dst); got != want {
					t.Fatalf("step %d (%s): Reachable(%s, %s) = %v, reference %v", step, what, src, dst, got, want)
				}
				lat, err := n.Latency(src, dst, 1500)
				refLat, ok := ref.latency(src, dst, 1500)
				if (err == nil) != ok || lat != refLat {
					t.Fatalf("step %d (%s): Latency %s->%s = %v, %v; reference %v, %v",
						step, what, src, dst, lat, err, refLat, ok)
				}
			}
		}
		if got, want := n.RouteComputes(), ref.computes; got != want {
			t.Fatalf("step %d (%s): RouteComputes = %d, reference %d", step, what, got, want)
		}
	}
	return refDrops
}
