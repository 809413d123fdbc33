// GIS replication: the registry is the single point the whole
// architecture hangs off (registration, VM-future discovery, failover's
// restage query), so this file makes it partition-tolerant. A Cluster
// pins N Service replicas to distinct netsim nodes; writes take effect
// only when the originating node can reach a majority of replicas
// (quorum, fail-closed), while reads always come from a local replica —
// possibly stale on the minority side of a partition, and marked so by
// the read Client. Periodic anti-entropy gossip exchanges timestamped
// last-writer-wins entries (including tombstones) over the simulated
// network, so a healed partition reconverges to one view.
package gis

import (
	"errors"
	"fmt"
	"sort"

	"vmgrid/internal/netsim"
	"vmgrid/internal/retry"
	"vmgrid/internal/sim"
)

// ErrUnreachable is returned by Client reads when no replica can be
// reached from the reader's node within the retry budget.
var ErrUnreachable = errors.New("gis: no reachable replica")

// Stamp totally orders writes for last-writer-wins reconciliation:
// simulated time first, then a cluster-wide sequence number, then the
// origin node name. Within one cluster the sequence number alone is
// unique, so ties cannot occur; Origin is kept for debuggability.
type Stamp struct {
	T      sim.Time
	Seq    uint64
	Origin string
}

// After reports whether a supersedes b in LWW order.
func (a Stamp) After(b Stamp) bool {
	if a.T != b.T {
		return a.T > b.T
	}
	if a.Seq != b.Seq {
		return a.Seq > b.Seq
	}
	return a.Origin > b.Origin
}

// stamped is one replica's metadata for a key: the stamp of the value
// it currently holds, and whether that value is a tombstone.
type stamped struct {
	st  Stamp
	del bool
}

// Replica is one member of a Cluster: a Service pinned to a network
// node, plus the per-key stamps that anti-entropy reconciles on.
type Replica struct {
	Svc  *Service
	Node string

	meta map[string]stamped
	// newest is the largest stamp in meta. Entries are only ever
	// replaced by newer stamps and never removed (deletes install
	// tombstones), so tracking it per install equals a full scan.
	newest Stamp
}

// gossipEntry is one record in flight between replicas.
type gossipEntry struct {
	key string
	stamped
	e Entry // zero-valued for tombstones
}

// Modeled wire cost of anti-entropy traffic.
const (
	gossipBaseBytes     = 64
	gossipPerEntryBytes = 256
)

// DefaultGossipInterval is the anti-entropy cadence when the caller
// passes zero.
const DefaultGossipInterval = 1 * sim.Second

// Cluster replicates a registry across netsim nodes. Writes are
// synchronous quorum operations (control-plane RPC latency is folded
// into the callers' heartbeat cadence); anti-entropy runs on the
// simulated wire and pays real latency, bandwidth, and partitions.
type Cluster struct {
	k    *sim.Kernel
	net  *netsim.Network
	reps []*Replica

	seq            uint64
	gossipEvery    sim.Duration
	running        bool
	minorityWrites uint64
	gossipRounds   uint64
}

// NewCluster replicates primary across the named netsim nodes (which
// must exist and be distinct). The primary becomes replica 0, pinned to
// nodes[0]; the remaining replicas start as copies of its current
// state. gossipEvery ≤ 0 selects DefaultGossipInterval. Anti-entropy
// does not run until Start.
func NewCluster(net *netsim.Network, primary *Service, nodes []string, gossipEvery sim.Duration) (*Cluster, error) {
	if primary.cluster != nil {
		return nil, fmt.Errorf("gis: service already replicated")
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("gis: cluster needs at least one node")
	}
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if net.Node(n) == nil {
			return nil, fmt.Errorf("gis: cluster node %q not in network", n)
		}
		if seen[n] {
			return nil, fmt.Errorf("gis: duplicate cluster node %q", n)
		}
		seen[n] = true
	}
	if gossipEvery <= 0 {
		gossipEvery = DefaultGossipInterval
	}
	c := &Cluster{k: primary.k, net: net, gossipEvery: gossipEvery}
	for i, n := range nodes {
		svc := primary
		if i > 0 {
			svc = New(primary.k)
			for k, e := range primary.records {
				svc.records[k] = e
			}
		}
		svc.cluster = c
		svc.home = n
		r := &Replica{Svc: svc, Node: n, meta: make(map[string]stamped, len(primary.records))}
		c.reps = append(c.reps, r)
	}
	// Seed identical stamps for pre-existing state so the cluster starts
	// converged.
	now := c.k.Now()
	keys := make([]string, 0, len(primary.records))
	for k := range primary.records {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		c.seq++
		st := stamped{st: Stamp{T: now, Seq: c.seq}}
		for _, r := range c.reps {
			r.adopt(k, st)
		}
	}
	return c, nil
}

// Start begins periodic anti-entropy. Idempotent.
func (c *Cluster) Start() {
	if c.running || len(c.reps) < 2 {
		return
	}
	c.running = true
	c.k.After(c.gossipEvery, c.tick)
}

// Stop halts anti-entropy after the currently scheduled round.
func (c *Cluster) Stop() { c.running = false }

func (c *Cluster) tick() {
	if !c.running {
		return
	}
	c.gossipRounds++
	c.gossip()
	c.k.After(c.gossipEvery, c.tick)
}

// gossip pushes every replica's full state to every peer it can send
// to. Deliveries ride the simulated network: they pay latency, queue
// for bandwidth, and are lost to partitions exactly like data traffic.
// Full-state push keeps reconciliation trivially correct at control-
// plane sizes (N ≤ 5, hundreds of records).
func (c *Cluster) gossip() {
	for _, src := range c.reps {
		var snap []gossipEntry
		for _, dst := range c.reps {
			if dst == src {
				continue
			}
			if snap == nil {
				snap = src.snapshot()
			}
			size := int64(gossipBaseBytes + gossipPerEntryBytes*len(snap))
			to := dst
			_ = c.net.Send(src.Node, dst.Node, size, snap, func(payload any) {
				to.merge(payload.([]gossipEntry))
			})
		}
	}
}

// snapshot copies a replica's stamped state for transmission.
func (r *Replica) snapshot() []gossipEntry {
	out := make([]gossipEntry, 0, len(r.meta))
	for k, m := range r.meta {
		ge := gossipEntry{key: k, stamped: m}
		if !m.del {
			ge.e = r.Svc.records[k]
		}
		out = append(out, ge)
	}
	return out
}

// merge applies newer-stamped entries from a peer's snapshot. Keys are
// independent, so application order within a snapshot cannot matter.
func (r *Replica) merge(snap []gossipEntry) {
	for _, ge := range snap {
		r.install(ge.key, ge.stamped, ge.e)
	}
}

// install adopts (key, value) if its stamp supersedes the local one.
func (r *Replica) install(key string, m stamped, e Entry) {
	if cur, ok := r.meta[key]; ok && !m.st.After(cur.st) {
		return
	}
	r.adopt(key, m)
	if m.del {
		delete(r.Svc.records, key)
		return
	}
	r.Svc.records[key] = e
}

// adopt records key's new stamp, keeping newest current.
func (r *Replica) adopt(key string, m stamped) {
	r.meta[key] = m
	if m.st.After(r.newest) {
		r.newest = m.st
	}
}

// reachable reports whether a control-plane RPC between two nodes would
// complete — both the request and the reply direction must route, so
// one-way partitions fail it.
func (c *Cluster) reachable(a, b string) bool {
	if a == b {
		return true
	}
	if _, err := c.net.Latency(a, b, 0); err != nil {
		return false
	}
	if _, err := c.net.Latency(b, a, 0); err != nil {
		return false
	}
	return true
}

// write is the quorum write path behind Register/Deregister on a
// replicated Service: judged from the originating node, applied to
// every replica that node can currently reach, rejected fail-closed
// with ErrNoQuorum from the minority side.
func (c *Cluster) write(origin string, kind Kind, name string, attrs map[string]any, ttl sim.Duration, del bool) error {
	reach := 0
	for _, r := range c.reps {
		if c.reachable(origin, r.Node) {
			reach++
		}
	}
	if 2*reach <= len(c.reps) {
		c.minorityWrites++
		return fmt.Errorf("%w: %s reaches %d of %d replicas", ErrNoQuorum, origin, reach, len(c.reps))
	}
	c.seq++
	m := stamped{st: Stamp{T: c.k.Now(), Seq: c.seq, Origin: origin}, del: del}
	var e Entry
	if !del {
		cp := make(map[string]any, len(attrs))
		for k, v := range attrs {
			cp[k] = v
		}
		e = Entry{Kind: kind, Name: name, Attrs: cp}
		if ttl > 0 {
			e.Expires = c.k.Now().Add(ttl)
		}
	}
	k := key(kind, name)
	for _, r := range c.reps {
		if c.reachable(origin, r.Node) {
			r.install(k, m, e)
		}
	}
	return nil
}

// BumpEpoch advances a session's fencing epoch through a quorum write:
// read the largest epoch visible from any reachable replica, write
// epoch+1. Quorum intersection makes the result strictly monotonic —
// any successful bump's majority overlaps the previous one's, so the
// read always sees the latest committed epoch.
func (c *Cluster) BumpEpoch(origin, session string) (int64, error) {
	var cur int64
	for _, r := range c.reps {
		if !c.reachable(origin, r.Node) {
			continue
		}
		if e := r.Svc.Epoch(session); e > cur {
			cur = e
		}
	}
	next := cur + 1
	if err := c.write(origin, KindEpoch, session, map[string]any{AttrEpoch: next}, 0, false); err != nil {
		return 0, err
	}
	return next, nil
}

// GuardAt is the cluster form of Service.EpochGuard: the check reads
// the first replica reachable from node at call time — the view a
// server pinned there would actually have. With no replica in reach the
// token cannot be validated and the op is admitted; fencing bites as
// soon as the server can see any replica carrying the bumped epoch.
func (c *Cluster) GuardAt(node, session string, token int64) func() error {
	guards := make([]func() error, len(c.reps))
	for i, r := range c.reps {
		guards[i] = r.Svc.EpochGuard(session, token)
	}
	return func() error {
		for i, r := range c.reps {
			if c.reachable(node, r.Node) {
				return guards[i]()
			}
		}
		return nil
	}
}

// Size returns the replica count.
func (c *Cluster) Size() int { return len(c.reps) }

// Replica returns the i'th member's Service (reads stay local to it).
func (c *Cluster) Replica(i int) *Service { return c.reps[i].Svc }

// Node returns the i'th member's netsim node.
func (c *Cluster) Node(i int) string { return c.reps[i].Node }

// MinorityWrites counts write attempts rejected with ErrNoQuorum —
// each one is a moment a partitioned node tried to mutate the grid
// view, the raw signal behind the split-brain-risk alert.
func (c *Cluster) MinorityWrites() uint64 { return c.minorityWrites }

// GossipRounds counts completed anti-entropy rounds.
func (c *Cluster) GossipRounds() uint64 { return c.gossipRounds }

// Converged reports whether every replica holds the identical stamped
// view — the post-heal invariant the chaos sweep asserts.
func (c *Cluster) Converged() bool {
	base := c.reps[0]
	for _, r := range c.reps[1:] {
		if len(r.meta) != len(base.meta) || len(r.Svc.records) != len(base.Svc.records) {
			return false
		}
		for k, m := range base.meta {
			if got, ok := r.meta[k]; !ok || got != m {
				return false
			}
		}
	}
	return true
}

// Lag returns how far behind the i'th replica is, as the simulated-time
// distance between the newest stamp anywhere in the cluster and the
// newest stamp the replica has adopted. Zero when it has seen the
// latest write; grows while a partition starves it of gossip.
func (c *Cluster) Lag(i int) sim.Duration {
	var newest Stamp
	for _, r := range c.reps {
		if r.newest.After(newest) {
			newest = r.newest
		}
	}
	mine := c.reps[i].newest
	if newest.T <= mine.T {
		return 0
	}
	return sim.Duration(newest.T - mine.T)
}

// Cluster returns the cluster a replicated Service belongs to (nil for
// a standalone registry).
func (s *Service) Cluster() *Cluster { return s.cluster }

// Home returns the netsim node a replicated Service is pinned to (""
// for a standalone registry).
func (s *Service) Home() string { return s.home }

// Client is a node's read-side view of the replicated registry: reads
// fail over across replicas in pinned order under the shared
// retry.Policy vocabulary, and are marked stale when the replica that
// served them sits on the minority side of a partition (it may be
// missing committed writes).
type Client struct {
	c    *Cluster
	node string
	pol  retry.Policy
}

// ClientAt creates a read client anchored at a netsim node. The
// policy's attempt budget bounds how many replicas a read probes before
// giving up with ErrUnreachable; zero-value policy probes every
// replica once.
func (c *Cluster) ClientAt(node string, pol retry.Policy) *Client {
	if pol.MaxAttempts < 1 {
		pol.MaxAttempts = len(c.reps)
	}
	return &Client{c: c, node: node, pol: pol}
}

// serving picks the replica a read uses: the first one reachable from
// the client's node, probing at most the policy's attempt budget.
func (cl *Client) serving() (*Replica, bool, error) {
	attempts := cl.pol.Attempts()
	for i, r := range cl.c.reps {
		if i >= attempts {
			break
		}
		if !cl.c.reachable(cl.node, r.Node) {
			continue
		}
		// Stale when the serving replica cannot itself assemble a
		// quorum: committed writes may be missing from its view.
		reach := 0
		for _, p := range cl.c.reps {
			if cl.c.reachable(r.Node, p.Node) {
				reach++
			}
		}
		return r, 2*reach <= len(cl.c.reps), nil
	}
	return nil, false, fmt.Errorf("%w: from %s (tried %d)", ErrUnreachable, cl.node, min(attempts, len(cl.c.reps)))
}

// Lookup fetches one record from the first reachable replica. stale
// reports minority-side service.
func (cl *Client) Lookup(kind Kind, name string) (e Entry, stale bool, err error) {
	r, stale, err := cl.serving()
	if err != nil {
		return Entry{}, false, err
	}
	e, err = r.Svc.Lookup(kind, name)
	return e, stale, err
}

// Select lists matching records from the first reachable replica.
func (cl *Client) Select(kind Kind, pred func(Entry) bool) (out []Entry, stale bool, err error) {
	r, stale, err := cl.serving()
	if err != nil {
		return nil, false, err
	}
	return r.Svc.Select(kind, pred), stale, nil
}

// FindFutures runs the VM-future query against the first reachable
// replica — the failover-time restage query stays answerable as long
// as any replica is in reach.
func (cl *Client) FindFutures(q FutureQuery) (out []Entry, stale bool, err error) {
	r, stale, err := cl.serving()
	if err != nil {
		return nil, false, err
	}
	return r.Svc.FindFutures(q), stale, nil
}

// Epoch reads a session's epoch from the first reachable replica.
func (cl *Client) Epoch(session string) (int64, bool, error) {
	r, stale, err := cl.serving()
	if err != nil {
		return 0, false, err
	}
	return r.Svc.Epoch(session), stale, nil
}
