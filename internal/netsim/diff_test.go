package netsim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"vmgrid/internal/sim"
)

// refNet is a reference router keyed by node name: per-source next-hop,
// depth and tree-parent maps, the sorted-name BFS, and the incremental
// invalidation rules, written out plainly. The differential test drives
// it and a Network through the same topology changes and requires the
// two to agree on every route, every latency, every in-flight drop and
// every BFS they run.
type refNet struct {
	links    map[string]map[string]*refLink // from -> to
	routes   map[string]*refRoutes
	computes uint64
}

type refLink struct {
	latency sim.Duration
	bwBps   float64
	down    bool
}

type refRoutes struct {
	next   map[string]string
	dist   map[string]int
	parent map[string]string
}

func newRefNet() *refNet {
	return &refNet{links: make(map[string]map[string]*refLink), routes: make(map[string]*refRoutes)}
}

func (r *refNet) addNode(name string) {
	if r.links[name] == nil {
		r.links[name] = make(map[string]*refLink)
	}
}

func (r *refNet) connect(a, b string, lat sim.Duration, bw float64) {
	r.links[a][b] = &refLink{latency: lat, bwBps: bw}
	r.links[b][a] = &refLink{latency: lat, bwBps: bw}
	r.edgeUp(a, b)
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
func (r *refNet) bfs(src string) *refRoutes {
	rt := &refRoutes{next: map[string]string{}, dist: map[string]int{src: 0}, parent: map[string]string{}}
	queue := []string{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, p := range r.peers(cur) {
			if r.links[cur][p].down {
				continue
			}
			if _, seen := rt.dist[p]; seen {
				continue
			}
			if cur == src {
				rt.next[p] = p
			} else {
				rt.next[p] = rt.next[cur]
			}
			rt.dist[p] = rt.dist[cur] + 1
			rt.parent[p] = cur
			queue = append(queue, p)
		}
	}
	return rt
}

func (r *refNet) routesFor(src string) *refRoutes {
	if rt, ok := r.routes[src]; ok {
		return rt
	}
	r.computes++
	rt := r.bfs(src)
	r.routes[src] = rt
	return rt
}

func (r *refNet) edgeDown(a, b string) {
	for src, rt := range r.routes {
		if rt.parent[a] == b || rt.parent[b] == a {
			delete(r.routes, src)
		}
	}
}

func (r *refNet) edgeUp(a, b string) {
	for src, rt := range r.routes {
		da, oka := rt.dist[a]
		db, okb := rt.dist[b]
		if !oka && !okb || oka && okb && da == db {
			continue
		}
		delete(r.routes, src)
	}
}

func (r *refNet) dirDown(from, to string) {
	for src, rt := range r.routes {
		if rt.parent[to] == from {
			delete(r.routes, src)
		}
	}
}

func (r *refNet) dirUp(from, to string) {
	for src, rt := range r.routes {
		df, okf := rt.dist[from]
		if !okf {
			continue
		}
		if dt, okt := rt.dist[to]; okt && dt <= df {
			continue
		}
		delete(r.routes, src)
	}
}

func (r *refNet) setLinkUp(a, b string, up bool) {
	r.links[a][b].down, r.links[b][a].down = !up, !up
	if up {
		r.edgeUp(a, b)
	} else {
		r.edgeDown(a, b)
	}
}

func (r *refNet) setLinkDirUp(from, to string, up bool) {
	r.links[from][to].down = !up
	if up {
		r.dirUp(from, to)
	} else {
		r.dirDown(from, to)
	}
}

func (r *refNet) setNodeDirUp(name string, outbound, up bool) {
	for peer, l := range r.links[name] {
		from, to := peer, name
		if outbound {
			l.down = !up
			from, to = name, peer
		} else {
			r.links[peer][name].down = !up
		}
		if up {
			r.dirUp(from, to)
		} else {
			r.dirDown(from, to)
		}
	}
}

func (r *refNet) setNodeUp(name string, up bool) {
	for peer, l := range r.links[name] {
		l.down = !up
		r.links[peer][name].down = !up
	}
	for src, rt := range r.routes {
		dn, okn := rt.dist[name]
		if !up {
			if okn {
				delete(r.routes, src)
			}
			continue
		}
		for peer := range r.links[name] {
			dp, okp := rt.dist[peer]
			if !okn && !okp || okn && okp && dn == dp {
				continue
			}
			delete(r.routes, src)
			break
		}
	}
}

func (r *refNet) nextHop(src, dst string) string { return r.routesFor(src).next[dst] }

func (r *refNet) reachable(a, b string) bool {
	if a == b {
		return true
	}
	_, ab := r.routesFor(a).next[b]
	if !ab {
		return false
	}
	_, ba := r.routesFor(b).next[a]
	return ba
}

func (r *refNet) latency(src, dst string, size int64) (sim.Duration, bool) {
	var total sim.Duration
	for cur := src; cur != dst; {
		hop, ok := r.routesFor(cur).next[dst]
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
		next, ok := r.routesFor(cur).next[dst]
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
// link flaps, one-way link failures, node-direction failures, node
// crashes and heals, and nodes added after routes were computed. Each
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
		switch op := rng.Intn(6); op {
		case 0, 1:
			e := edges[rng.Intn(len(edges))]
			up := rng.Intn(2) == 0
			what = fmt.Sprintf("link %s-%s up=%v", e.a, e.b, up)
			if err := n.SetLinkUp(e.a, e.b, up); err != nil {
				t.Fatal(err)
			}
			ref.setLinkUp(e.a, e.b, up)
		case 2:
			e := edges[rng.Intn(len(edges))]
			from, to := e.a, e.b
			if rng.Intn(2) == 0 {
				from, to = to, from
			}
			up := rng.Intn(2) == 0
			what = fmt.Sprintf("link %s->%s up=%v", from, to, up)
			if err := n.SetLinkDirUp(from, to, up); err != nil {
				t.Fatal(err)
			}
			ref.setLinkDirUp(from, to, up)
		case 3:
			name := names[rng.Intn(len(names))]
			outbound, up := rng.Intn(2) == 0, rng.Intn(2) == 0
			what = fmt.Sprintf("node %s outbound=%v up=%v", name, outbound, up)
			if err := n.SetNodeDirUp(name, outbound, up); err != nil {
				t.Fatal(err)
			}
			ref.setNodeDirUp(name, outbound, up)
		case 4:
			name := names[rng.Intn(len(names))]
			up := rng.Intn(3) > 0
			what = fmt.Sprintf("node %s up=%v", name, up)
			if err := n.SetNodeUp(name, up); err != nil {
				t.Fatal(err)
			}
			ref.setNodeUp(name, up)
		case 5:
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
				if got != want || want != fresh.next[dst] {
					t.Fatalf("step %d (%s): next hop %s->%s = %q, reference %q, fresh BFS %q",
						step, what, src, dst, got, want, fresh.next[dst])
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
