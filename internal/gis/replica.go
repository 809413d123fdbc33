// GIS replication: the registry is the single point the whole
// architecture hangs off (registration, VM-future discovery, failover's
// restage query), so this file makes it partition-tolerant. A Cluster
// pins N Service replicas to distinct netsim nodes; writes take effect
// only when the originating node can reach a majority of replicas
// (quorum, fail-closed), while a read asks one replica without a
// quorum — the replica a reader is pinned to, or for an epoch guard the
// first one in reach (GuardAt) — so it may be stale on the minority
// side of a partition. Periodic anti-entropy gossip exchanges timestamped
// last-writer-wins entries (including tombstones) over the simulated
// network, so a healed partition reconverges to one view. Each payload
// carries only what its peer has not yet been delivered, drawn from the
// sender's change log; its modelled wire size stays that of the full
// state.
package gis

import (
	"fmt"
	"sort"

	"vmgrid/internal/netsim"
	"vmgrid/internal/sim"
)

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

// metaEntry is a replica's state for one key: its stamp, and the
// change-log version at which the replica adopted it.
type metaEntry struct {
	stamped
	ver uint64
}

// logEntry records that key was adopted at version ver. It is live
// while meta[key].ver == ver; a later adoption of the key supersedes it.
type logEntry struct {
	key string
	ver uint64
}

// Replica is one member of a Cluster: a Service pinned to a network
// node, plus the per-key stamps that anti-entropy reconciles on.
//
// For a clustered replica, records change only through adopt (install
// and the cluster's seeding; Service.apply runs only unreplicated), so
// the change log sees every change and a payload built from it carries
// everything a peer may be missing.
type Replica struct {
	Svc  *Service
	Node string
	at   *netsim.Node // Node, resolved once

	meta map[string]metaEntry
	// newest is the largest stamp in meta. Entries are only ever
	// replaced by newer stamps and never removed (deletes install
	// tombstones), so tracking it per install equals a full scan.
	newest Stamp

	// log holds adoptions in version order, compacted to the entries
	// some peer may still need; ver is the last version issued.
	log   []logEntry
	ver   uint64
	links []*gossipLink // to every peer, in cluster order
}

// gossipLink is the anti-entropy channel from one replica to one peer.
// delivered is the highest log version whose payload has reached the
// peer: every key whose current version is ≤ delivered is already held
// there at an equal or newer stamp. It advances only when a payload
// lands, so a payload lost to a partition is re-covered by the next
// round.
type gossipLink struct {
	dst       *Replica
	delivered uint64
	deliver   func(payload any) // bound once per link
}

// gossipPayload is one round's delta from a replica to a peer: the
// live log entries above the peer's watermark, as of send time.
//
// Payloads come from the cluster's free list. A payload holds one
// reference per Send that accepted it, and each delivery drops one
// after merging, so it returns to the list only once no message
// carries it. A payload whose sends all fail returns at once; one
// dropped in flight keeps its reference and is left to the GC.
type gossipPayload struct {
	entries []gossipEntry
	from    uint64 // the watermark the entries are above
	upTo    uint64 // the sender's log version when the payload was built
	refs    int
	next    *gossipPayload // free-list link
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

	reach          []bool // write's per-replica reachability, reused
	seq            uint64
	gossipEvery    sim.Duration
	running        bool
	next           sim.EventID
	tickFn         func() // tick, bound once so rearming allocates nothing
	free           *gossipPayload
	minorityWrites uint64
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
	c := &Cluster{k: primary.k, net: net, gossipEvery: gossipEvery, reach: make([]bool, len(nodes))}
	c.tickFn = c.tick
	for i, n := range nodes {
		svc := primary
		if i > 0 {
			svc = New(primary.k)
			for k, e := range primary.records {
				cp := *e
				svc.records[k] = &cp
			}
		}
		svc.cluster = c
		svc.home = n
		r := &Replica{Svc: svc, Node: n, at: net.Node(n), meta: make(map[string]metaEntry, len(primary.records))}
		c.reps = append(c.reps, r)
	}
	for _, src := range c.reps {
		for _, dst := range c.reps {
			if dst != src {
				src.links = append(src.links, c.newGossipLink(dst))
			}
		}
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
	// Every replica already holds the seeded state: nothing to send.
	for _, r := range c.reps {
		for _, l := range r.links {
			l.delivered = r.ver
		}
		r.compact()
	}
	return c, nil
}

func (c *Cluster) newGossipLink(dst *Replica) *gossipLink {
	l := &gossipLink{dst: dst}
	l.deliver = func(payload any) {
		p := payload.(*gossipPayload)
		dst.merge(p.entries)
		l.delivered = max(l.delivered, p.upTo)
		p.refs--
		c.recycle(p)
	}
	return l
}

// Start begins periodic anti-entropy. Idempotent.
func (c *Cluster) Start() {
	if c.running || len(c.reps) < 2 {
		return
	}
	c.running = true
	c.next = c.k.After(c.gossipEvery, c.tickFn)
}

// Stop halts anti-entropy: the pending round is canceled, so a later
// Start runs one round chain, not two. Payloads already on the wire
// still land.
func (c *Cluster) Stop() {
	if !c.running {
		return
	}
	c.running = false
	c.k.Cancel(c.next)
	c.next = sim.EventID{}
}

func (c *Cluster) tick() {
	if !c.running {
		return
	}
	c.gossip()
	c.next = c.k.After(c.gossipEvery, c.tickFn)
}

// gossip pushes every replica's state to every peer it can send to.
// Deliveries ride the simulated network: they pay latency, queue for
// bandwidth, and are lost to partitions exactly like data traffic.
//
// A payload carries only the entries changed since the last payload
// the peer received (see gossipLink), which is exactly what a
// full-state push would change there: the omitted entries are already
// held at an equal or newer stamp, and install is last-writer-wins
// idempotent. The modelled wire size is still the full state's, so
// network timing is that of full-state push.
func (c *Cluster) gossip() {
	for _, src := range c.reps {
		src.compact()
		size := int64(gossipBaseBytes + gossipPerEntryBytes*len(src.meta))
		var p *gossipPayload
		for _, l := range src.links {
			// Peers at the same watermark share one payload.
			if p == nil || l.delivered != p.from {
				c.recycle(p)
				p = c.payload(src, l.delivered)
			}
			if src.at.Send(l.dst.at, size, p, l.deliver) == nil {
				p.refs++
			}
		}
		c.recycle(p)
	}
}

// payload takes a payload from the free list (or allocates one) and
// fills it with src's changes above the watermark from.
func (c *Cluster) payload(src *Replica, from uint64) *gossipPayload {
	p := c.free
	if p == nil {
		p = new(gossipPayload)
	} else {
		c.free, p.next = p.next, nil
	}
	p.entries = src.appendChangesSince(p.entries, from)
	p.from, p.upTo = from, src.ver
	return p
}

// recycle puts p back on the free list, emptied so it pins no records,
// once no accepted Send still carries it.
func (c *Cluster) recycle(p *gossipPayload) {
	if p == nil || p.refs > 0 {
		return
	}
	clear(p.entries)
	p.entries = p.entries[:0]
	p.next = c.free
	c.free = p
}

// appendChangesSince appends the live log entries above version from,
// with their current stamps and records, in log order.
func (r *Replica) appendChangesSince(out []gossipEntry, from uint64) []gossipEntry {
	i := sort.Search(len(r.log), func(i int) bool { return r.log[i].ver > from })
	for _, le := range r.log[i:] {
		m := r.meta[le.key]
		if m.ver != le.ver {
			continue // superseded later in the log
		}
		ge := gossipEntry{key: le.key, stamped: m.stamped}
		if !m.del {
			ge.e = *r.Svc.records[le.key]
		}
		out = append(out, ge)
	}
	return out
}

// compact drops the log entries no peer can still need: those at or
// below every peer's delivered watermark, and those superseded by a
// later adoption of the same key. What remains holds at most one entry
// per key.
func (r *Replica) compact() {
	low := r.ver
	for _, l := range r.links {
		low = min(low, l.delivered)
	}
	kept := r.log[:0]
	for _, le := range r.log {
		if le.ver > low && r.meta[le.key].ver == le.ver {
			kept = append(kept, le)
		}
	}
	clear(r.log[len(kept):])
	r.log = kept
}

// merge applies newer-stamped entries from a peer's payload. Keys are
// independent, so application order within a payload cannot matter.
func (r *Replica) merge(entries []gossipEntry) {
	for _, ge := range entries {
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
	if cur := r.Svc.records[key]; cur != nil {
		*cur = e
		return
	}
	cp := e
	r.Svc.records[key] = &cp
}

// adopt records key's new stamp at the next log version, keeping newest
// current. A log grown past twice the key count is compacted, so even a
// peer that never receives anything cannot make it grow without bound.
func (r *Replica) adopt(key string, m stamped) {
	r.ver++
	r.meta[key] = metaEntry{stamped: m, ver: r.ver}
	r.log = append(r.log, logEntry{key: key, ver: r.ver})
	if len(r.log) > 2*len(r.meta) {
		r.compact()
	}
	if m.st.After(r.newest) {
		r.newest = m.st
	}
}

// write is the quorum write path behind Register/Deregister on a
// replicated Service: judged from the originating node, applied to
// every replica that node can currently reach, rejected fail-closed
// with ErrNoQuorum from the minority side. A replica counts as
// reachable when a control-plane RPC to it would complete: both the
// request and the reply direction must route, so one-way partitions
// fail it. Reachability is judged once per replica and used for both
// the quorum count and the apply.
func (c *Cluster) write(origin string, kind Kind, name string, attrs map[string]any, ttl sim.Duration, del bool) error {
	from := c.net.Node(origin)
	reach := 0
	for i, r := range c.reps {
		c.reach[i] = c.net.Reachable(from, r.at)
		if c.reach[i] {
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
		// Copy on write: every replica installs this one map, and gossip
		// payloads carry it by reference, so a replicated record's Attrs
		// are never written after this point.
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
	for i, r := range c.reps {
		if c.reach[i] {
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
	from := c.net.Node(origin)
	for _, r := range c.reps {
		if !c.net.Reachable(from, r.at) {
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
		from := c.net.Node(node)
		for i, r := range c.reps {
			if c.net.Reachable(from, r.at) {
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

// Converged reports whether every replica holds the identical stamped
// view — the post-heal invariant the chaos sweep asserts.
func (c *Cluster) Converged() bool {
	base := c.reps[0]
	for _, r := range c.reps[1:] {
		if len(r.meta) != len(base.meta) || len(r.Svc.records) != len(base.Svc.records) {
			return false
		}
		for k, m := range base.meta {
			if got, ok := r.meta[k]; !ok || got.stamped != m.stamped {
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
