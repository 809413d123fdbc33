// Package netsim models the network joining grid sites: named nodes
// connected by links with latency and bandwidth. Messages queue FIFO per
// link direction, so concurrent transfers contend for bandwidth the way
// they do on a real wire. Routing is shortest-path by hop count,
// computed lazily per source node. Any topology change drops every
// cached route, and each source's next send runs one BFS: the grid's
// fabrics have a handful of nodes, so a finer rule would save almost
// nothing.
//
// Names are resolved once. Every node gets a dense id when it is added,
// and a source's route state is one id-indexed next-hop table held on
// the source node itself, so a message that carries its destination
// node crosses each hop without a string lookup. Network.Send is the
// name-resolving entry into Node.Send; callers on hot paths resolve
// their nodes once and send between them directly.
//
// Two canonical topologies bracket the paper's testbed: a switched
// 100 Mbit LAN (Table 2's "within a LAN" startup measurements) and the
// Northwestern–Florida WAN path used by the PVFS rows of Table 1.
package netsim

import (
	"fmt"
	"sort"

	"vmgrid/internal/sim"
)

// Default link parameters for the paper-era testbed.
const (
	// LANLatency is the one-way latency of a switched Fast Ethernet hop.
	LANLatency = 150 * sim.Microsecond
	// LANBandwidthBps is Fast Ethernet line rate in bytes/second.
	LANBandwidthBps = 100e6 / 8
	// WANLatency is the one-way latency between the two university
	// sites (~28 ms RTT, typical Abilene-era cross-country path).
	WANLatency = 14 * sim.Millisecond
	// WANBandwidthBps is the sustained wide-area TCP throughput the
	// paper's transfers would have seen (~5 MB/s).
	WANBandwidthBps = 5e6
)

// Network is a set of nodes and links sharing one simulation kernel.
type Network struct {
	k             *sim.Kernel
	nodes         map[string]*Node
	byID          []*Node // every node, indexed by id (AddNode order)
	routeComputes uint64
	drops         uint64
	bytesSent     uint64

	freeMsgs *message
	queue    []*Node // BFS scratch, reused by every route computation
}

// New creates an empty network.
func New(k *sim.Kernel) *Network {
	return &Network{k: k, nodes: make(map[string]*Node)}
}

// Kernel returns the simulation kernel.
func (n *Network) Kernel() *sim.Kernel { return n.k }

// Node returns the named node, or nil.
func (n *Network) Node(name string) *Node { return n.nodes[name] }

// AddNode creates a node with the next dense id. Adding an existing
// name returns the existing node, so topology builders can be
// idempotent. A fresh node has no links, so existing cached routes stay
// valid as-is: their tables simply end before the new id, which reads
// as unreachable.
func (n *Network) AddNode(name string) *Node {
	if node, ok := n.nodes[name]; ok {
		return node
	}
	node := &Node{net: n, name: name, id: len(n.byID), links: make(map[string]*link, 4)}
	n.nodes[name] = node
	n.byID = append(n.byID, node)
	return node
}

// Connect joins two nodes with a bidirectional link. Each direction has
// its own transmission queue.
func (n *Network) Connect(a, b string, latency sim.Duration, bandwidthBps float64) error {
	na, nb := n.nodes[a], n.nodes[b]
	if na == nil || nb == nil {
		return fmt.Errorf("netsim: connect %q-%q: unknown node", a, b)
	}
	if bandwidthBps <= 0 {
		return fmt.Errorf("netsim: connect %q-%q: bandwidth %v", a, b, bandwidthBps)
	}
	na.links[b] = &link{net: n, to: nb, latency: latency, bwBps: bandwidthBps}
	nb.links[a] = &link{net: n, to: na, latency: latency, bwBps: bandwidthBps}
	na.sorted = nil
	nb.sorted = nil
	n.invalidate()
	return nil
}

// ConnectLAN joins two nodes with default LAN parameters.
func (n *Network) ConnectLAN(a, b string) error {
	return n.Connect(a, b, LANLatency, LANBandwidthBps)
}

// ConnectWAN joins two nodes with default WAN parameters.
func (n *Network) ConnectWAN(a, b string) error {
	return n.Connect(a, b, WANLatency, WANBandwidthBps)
}

// SetLinkUp marks the a<->b link up or down (failure injection). Routing
// recomputes around down links immediately: every cached route is
// dropped, so partitions take effect mid-simulation. Messages already
// queued on the link still cross it (store-and-forward), but if their
// onward route vanished by arrival time they are dropped and counted in
// Drops.
func (n *Network) SetLinkUp(a, b string, up bool) error {
	na, nb := n.nodes[a], n.nodes[b]
	if na == nil || nb == nil {
		return fmt.Errorf("netsim: set link %q-%q: unknown node", a, b)
	}
	la, lb := na.links[b], nb.links[a]
	if la == nil || lb == nil {
		return fmt.Errorf("netsim: set link %q-%q: no such link", a, b)
	}
	la.down = !up
	lb.down = !up
	n.invalidate()
	return nil
}

// SetNodeDirUp fails (or restores) one direction of every link attached
// to a node: outbound=true silences the node (it still hears the grid
// but nothing it sends arrives), outbound=false deafens it (it can send
// but receives nothing). This is the node-level asymmetric partition —
// the classic split-brain trigger, where a host keeps serving while the
// rest of the grid believes it dead.
func (n *Network) SetNodeDirUp(name string, outbound, up bool) error {
	nd := n.nodes[name]
	if nd == nil {
		return fmt.Errorf("netsim: set node dir %q: unknown node", name)
	}
	for _, l := range nd.peerLinks() {
		if outbound {
			l.down = !up
		} else if back := l.to.links[name]; back != nil {
			back.down = !up
		}
	}
	n.invalidate()
	return nil
}

// SetNodeUp fails (or restores) every link attached to a node at once —
// the network face of a fail-stop node crash. Restoring brings all the
// node's links up, including any that were downed individually before.
// Like every topology change, it drops every cached route.
func (n *Network) SetNodeUp(name string, up bool) error {
	nd := n.nodes[name]
	if nd == nil {
		return fmt.Errorf("netsim: set node %q: unknown node", name)
	}
	for _, l := range nd.peerLinks() {
		l.down = !up
		if back := l.to.links[name]; back != nil {
			back.down = !up
		}
	}
	n.invalidate()
	return nil
}

// invalidate drops every source's cached routes after a topology
// change; each source's next send runs one BFS.
func (n *Network) invalidate() {
	for _, src := range n.byID {
		src.routed = false
	}
}

// Drops returns messages discarded mid-path because their route
// disappeared while they were in flight.
func (n *Network) Drops() uint64 { return n.drops }

// BytesSent returns total payload bytes handed to Send for remote
// delivery (local src==dst loopback excluded) — the bytes-on-wire
// measure the staging experiments compare against full-copy baselines.
func (n *Network) BytesSent() uint64 { return n.bytesSent }

// RouteComputes returns how many per-source BFS computations have run:
// at most one per source between two topology changes.
func (n *Network) RouteComputes() uint64 { return n.routeComputes }

// BuildLAN creates the named nodes (if needed) and joins them through an
// implicit switch: every pair is one LAN hop apart.
func (n *Network) BuildLAN(names ...string) error {
	for _, name := range names {
		n.AddNode(name)
	}
	for i, a := range names {
		for _, b := range names[i+1:] {
			if err := n.ConnectLAN(a, b); err != nil {
				return err
			}
		}
	}
	return nil
}

// ErrNoRoute is wrapped by Send when the destination is unreachable.
var ErrNoRoute = fmt.Errorf("netsim: no route")

// message is one in-flight transfer, pooled on the network freelist so
// multi-hop forwarding schedules no per-hop closures: the hop callback
// is bound once when the struct is first allocated. A remote message
// costs one kernel event per link it crosses, and its handler runs
// inside the last of them.
type message struct {
	n       *Network
	at      *Node // node the message is currently heading to
	dst     *Node
	size    int64
	payload any
	deliver func(any)

	hopFn     func() // bound to hop: arrival at the next store-and-forward point
	deliverFn func() // bound to finalDeliver: the zero-delay event of a self-send
	nextFree  *message
}

func (n *Network) getMsg() *message {
	m := n.freeMsgs
	if m == nil {
		m = &message{n: n}
		m.hopFn = m.hop
		m.deliverFn = m.finalDeliver
		return m
	}
	n.freeMsgs = m.nextFree
	m.nextFree = nil
	return m
}

func (n *Network) putMsg(m *message) {
	m.at = nil
	m.dst = nil
	m.size = 0
	m.payload = nil
	m.deliver = nil
	m.nextFree = n.freeMsgs
	n.freeMsgs = m
}

// hop runs when the message finishes crossing a link and lands at m.at.
// At the destination it delivers at once: the handler runs at the
// arrival instant, inside this event, so it precedes every event queued
// for that instant after this hop was.
func (m *message) hop() {
	n := m.n
	if m.at == m.dst {
		m.finalDeliver()
		return
	}
	// The route is re-consulted at every store-and-forward hop. If a
	// link failed while the message was on the wire, the onward route
	// may be gone by arrival time: the message is dropped, exactly as a
	// router with no route would drop it. End-to-end recovery is the
	// caller's job (vfs per-op timeouts and retries).
	l := m.at.hopTo(m.dst)
	if l == nil {
		n.drops++
		n.putMsg(m)
		return
	}
	m.at = l.to
	l.transmit(m.size, m.hopFn)
}

func (m *message) finalDeliver() {
	deliver, payload := m.deliver, m.payload
	m.n.putMsg(m)
	if deliver != nil {
		deliver(payload)
	}
}

// Send transmits size bytes from src to dst and invokes deliver with the
// payload when the last byte arrives. Multi-hop paths pay each hop's
// latency and queue for each hop's bandwidth. It resolves both names and
// hands over to Node.Send.
func (n *Network) Send(src, dst string, size int64, payload any, deliver func(payload any)) error {
	from := n.nodes[src]
	if from == nil {
		return fmt.Errorf("netsim: send from unknown node %q", src)
	}
	to := n.nodes[dst]
	if to == nil {
		return fmt.Errorf("netsim: send to unknown node %q", dst)
	}
	return from.Send(to, size, payload, deliver)
}

// Send is Network.Send between resolved nodes of the same network —
// the message path, which consults no name from here to delivery.
func (nd *Node) Send(dst *Node, size int64, payload any, deliver func(payload any)) error {
	n := nd.net
	if size < 0 {
		size = 0
	}
	var l *link
	if nd != dst {
		if l = nd.hopTo(dst); l == nil {
			return fmt.Errorf("%w: %s -> %s", ErrNoRoute, nd.name, dst.name)
		}
	}
	m := n.getMsg()
	m.dst = dst
	m.size = size
	m.payload = payload
	m.deliver = deliver
	if l == nil {
		// A self-send is deferred: the caller's code after Send runs
		// before the handler does.
		n.k.After(0, m.deliverFn)
		return nil
	}
	n.bytesSent += uint64(size)
	m.at = l.to
	l.transmit(size, m.hopFn)
	return nil
}

// Reachable reports whether a and b, nodes of n, can exchange a request
// and its reply: each routes to the other, so a one-way partition fails
// it. A node always reaches itself; a nil node reaches nothing. Once
// both sources' routes are cached it is two table reads.
func (n *Network) Reachable(a, b *Node) bool {
	if a == nil || b == nil {
		return false
	}
	return a == b || a.hopTo(b) != nil && b.hopTo(a) != nil
}

// Latency returns the unloaded one-way latency from src to dst for a
// message of the given size, or an error if unreachable: the sum of
// each hop's latency and serialization time along the current route,
// with no queueing. The vnet overlay picks relays by it, the grid ranks
// servers by it, and a vfs mount picks its LAN or WAN profile from it.
func (n *Network) Latency(src, dst string, size int64) (sim.Duration, error) {
	if src == dst {
		return 0, nil
	}
	cur, to := n.nodes[src], n.nodes[dst]
	if cur == nil || to == nil {
		return 0, fmt.Errorf("netsim: latency: unknown node")
	}
	var total sim.Duration
	for cur != to {
		l := cur.hopTo(to)
		if l == nil {
			return 0, fmt.Errorf("%w: %s -> %s", ErrNoRoute, cur.name, dst)
		}
		total += l.latency + sim.DurationOf(float64(size)/l.bwBps)
		cur = l.to
	}
	return total, nil
}

// Node is a network attachment point (one per simulated machine).
type Node struct {
	net   *Network
	name  string
	id    int // dense, in AddNode order: the index into route tables
	links map[string]*link

	sorted []*link // cached links in sorted peer-name order; nil = rebuild

	// The node's routes as a source: the first-hop link toward each
	// node id, nil for no route. routed false means the table must be
	// recomputed (its storage is reused). It ends at the last id that
	// existed when it was computed.
	routed bool
	next   []*link
}

// Name returns the node name.
func (nd *Node) Name() string { return nd.name }

// peerLinks returns the node's links in sorted peer-name order. The
// slice is cached and invalidated when a link is attached.
func (nd *Node) peerLinks() []*link {
	if nd.sorted == nil && len(nd.links) > 0 {
		out := make([]*link, 0, len(nd.links))
		for _, l := range nd.links {
			out = append(out, l)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].to.name < out[j].to.name })
		nd.sorted = out
	}
	return nd.sorted
}

// hopTo returns the first-hop link from nd toward dst, or nil when dst
// is unreachable, running one BFS if nd's table is not valid.
func (nd *Node) hopTo(dst *Node) *link {
	if !nd.routed {
		nd.computeRoutes()
	}
	if dst.id < len(nd.next) {
		return nd.next[dst.id]
	}
	return nil
}

// computeRoutes runs one BFS from nd, recording the first hop toward
// every reachable node; a node is visited once it has a first hop.
// Neighbors expand in sorted name order so equal-cost ties resolve
// identically on every rebuild — fault injection recomputes routes
// mid-run, and route choice must not depend on map iteration order.
func (nd *Node) computeRoutes() {
	n := nd.net
	n.routeComputes++
	nd.next = resize(nd.next, len(n.byID))
	clear(nd.next)
	queue := append(n.queue[:0], nd)
	for i := 0; i < len(queue); i++ {
		cur := queue[i]
		for _, l := range cur.peerLinks() {
			peer := l.to
			if l.down || peer == nd || nd.next[peer.id] != nil {
				continue
			}
			first := l
			if cur != nd {
				first = nd.next[cur.id]
			}
			nd.next[peer.id] = first
			queue = append(queue, peer)
		}
	}
	n.queue = queue[:0]
	nd.routed = true
}

// resize returns s with length size, reusing its storage when it fits.
func resize[T any](s []T, size int) []T {
	if cap(s) >= size {
		return s[:size]
	}
	return make([]T, size)
}

// link is one direction of a connection. Transmissions serialize: the
// wire carries one message at a time at full bandwidth.
type link struct {
	net     *Network
	to      *Node
	latency sim.Duration
	bwBps   float64
	down    bool

	busyUntil sim.Time
	bytes     uint64
}

// transmit queues size bytes on the link and calls done when the last
// byte has arrived at the far end (store-and-forward).
func (l *link) transmit(size int64, done func()) {
	k := l.net.k
	start := k.Now()
	if l.busyUntil > start {
		start = l.busyUntil
	}
	txEnd := start.Add(sim.DurationOf(float64(size) / l.bwBps))
	l.busyUntil = txEnd
	l.bytes += uint64(size)
	k.At(txEnd.Add(l.latency), done)
}
