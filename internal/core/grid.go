// Package core is the paper's contribution: grid computing middleware
// whose unit of scheduling is a classic virtual machine rather than an
// operating-system user. It ties the substrates together — VMM and
// guest models, image storage, the grid virtual file system, virtual
// networking, the information service, and GRAM-style dispatch — into
// the session life cycle of the paper's Figure 3:
//
//  1. query the information service for a VM future,
//  2. query for an image server holding a suitable image,
//  3. establish the image data session (on-demand VFS or explicit staging),
//  4. instantiate the VM through globusrun (cold boot or warm restore),
//  5. assign a network identity (site DHCP or tunnel) and attach the
//     user's data session,
//  6. run the application; later shutdown, hibernate, or migrate.
package core

import (
	"fmt"
	"slices"
	"strings"

	"vmgrid/internal/chunk"
	"vmgrid/internal/gis"
	"vmgrid/internal/gram"
	"vmgrid/internal/hostos"
	"vmgrid/internal/hw"
	"vmgrid/internal/netsim"
	"vmgrid/internal/obs"
	"vmgrid/internal/sim"
	"vmgrid/internal/storage"
	"vmgrid/internal/telemetry"
	"vmgrid/internal/vfs"
	"vmgrid/internal/vnet"
)

// Grid is one virtual-machine grid: the shared simulation kernel, the
// network joining the sites, the information service, and the attached
// nodes.
type Grid struct {
	k        *sim.Kernel
	seed     uint64
	net      *netsim.Network
	info     *gis.Service
	registry *gram.Registry
	nodes    map[string]*Node
	order    []*Node // nodes sorted by name: the deterministic iteration order
	sessions int
	live     []*Session // live sessions, sorted by name
	tracer   *obs.Tracer
	recorder *obs.FlightRecorder

	telemetry     *telemetry.Collector
	stagingSeries *stagingSeries // telemetry handles, resolved on the first scrape
	gisSeries     *gisSeries     // likewise
	monitor       *Monitor
	supervisors   []*Supervisor
	chunks        *chunk.Plane
}

// NewGrid creates an empty grid fabric seeded deterministically.
func NewGrid(seed uint64) *Grid {
	k := sim.NewKernel(seed)
	return &Grid{
		k:        k,
		seed:     seed,
		net:      netsim.New(k),
		info:     gis.New(k),
		registry: gram.NewRegistry(),
		nodes:    make(map[string]*Node),
	}
}

// Kernel returns the simulation kernel.
func (g *Grid) Kernel() *sim.Kernel { return g.k }

// Net returns the network, for wiring topologies.
func (g *Grid) Net() *netsim.Network { return g.net }

// Info returns the information service.
func (g *Grid) Info() *gis.Service { return g.info }

// EnableGISReplication replicates the information service across the
// named nodes (which must already be attached and connected): the
// existing registry becomes replica 0, pinned to nodes[0], and writes
// from then on require a quorum judged from the originating node.
// Anti-entropy gossip starts immediately, every
// gis.DefaultGossipInterval. Call after the topology is built and
// before injecting faults. With one node this degenerates to the
// unreplicated behavior every existing experiment is calibrated
// against.
func (g *Grid) EnableGISReplication(nodes []string) (*gis.Cluster, error) {
	c, err := gis.NewCluster(g.net, g.info, nodes, gis.DefaultGossipInterval)
	if err != nil {
		return nil, err
	}
	c.Start()
	return c, nil
}

// EnableChunkedStaging attaches a content-addressed chunk plane to
// every node store (present and future): staging paths — session
// creation, checkpoint staging, failover restores, fenced migrations —
// then move only the chunks the destination does not
// already hold, and supervised checkpoints overlap their copy window
// with guest compute. Existing files get manifests in sorted node and
// file order, so enabling the plane is deterministic. Call once, after
// the topology exists or before it is built; without it every transfer
// path behaves exactly as before chunking existed.
func (g *Grid) EnableChunkedStaging(cfg chunk.Config) *chunk.Plane {
	p := chunk.NewPlane(cfg)
	g.chunks = p
	for _, n := range g.order {
		n.store.SetChunkPlane(p)
	}
	return p
}

// ChunkPlane returns the grid's chunk plane, or nil when chunked
// staging is not enabled.
func (g *Grid) ChunkPlane() *chunk.Plane { return g.chunks }

// epochGuardAt builds the fencing check a data-plane server at
// serverNode applies to a session incarnation's operations: reject with
// gis.ErrFencedEpoch once the session's epoch, as visible to that
// server, has moved past the incarnation's token. Unreplicated grids
// consult the single registry; replicated ones consult the first
// replica reachable from the server (a server that can see no replica
// cannot validate tokens and admits the op — fencing is only as strong
// as the information the server can reach).
func (g *Grid) epochGuardAt(serverNode, session string, token int64) func() error {
	if c := g.info.Cluster(); c != nil {
		return c.GuardAt(serverNode, session, token)
	}
	return g.info.EpochGuard(session, token)
}

// Node returns the named node, or nil.
func (g *Grid) Node(name string) *Node { return g.nodes[name] }

// Role flags what services a node runs.
type Role int

// Node roles; a node may combine them.
const (
	// RoleCompute accepts VM instantiation (runs a gatekeeper).
	RoleCompute Role = 1 << iota
	// RoleImageServer archives VM images and exports them via the VFS.
	RoleImageServer
	// RoleDataServer stores user data and exports it via the VFS.
	RoleDataServer
	// RoleFrontEnd submits sessions on behalf of users.
	RoleFrontEnd
)

// advertiseRetry is how long a node waits before re-sending a
// VM-future advertise that failed to reach a registry quorum.
const advertiseRetry = 5 * sim.Second

// Node is one machine attached to the grid.
type Node struct {
	grid *Grid
	name string
	site string
	role Role
	nic  *netsim.Node // the node's network attachment

	host  *hostos.Host
	store *storage.Store
	vfsrv *vfs.Server
	gk    *gram.Gatekeeper
	dhcp  *vnet.DHCP

	images map[string]storage.ImageInfo

	// capacity is the configured slot count. Each incarnation listed in
	// incs holds one slot; the rest are free.
	capacity int
	incs     []*incarnation
	crashed  bool
	// DHCP pool parameters, kept to rebuild the pool after a reboot
	// (crash loses all leases).
	dhcpPrefix string
	dhcpSize   int
	// adRetry marks a failed VM-future advertise awaiting retry. Slot
	// changes are the only other trigger, so without the retry a write
	// lost to a partition would leave the record stale forever.
	adRetry  bool
	series   *nodeSeries // telemetry handles, resolved on the first scrape
	forecast *forecast   // the monitor's load forecast; nil when unwatched
}

// NodeConfig describes a node to attach.
type NodeConfig struct {
	Name string
	Site string
	Role Role
	// Slots is how many concurrent VMs a compute node offers.
	Slots int
	// DHCPPrefix, when set, gives the node a pool of addresses for VM
	// instances ("10.1.0."); compute nodes without one force tunneling.
	DHCPPrefix string
	// DHCPSize is the pool size (default 64).
	DHCPSize int
}

// AddNode attaches a machine to the grid. The caller connects it to the
// network afterwards via Grid.Net (links are topology, not node,
// configuration).
func (g *Grid) AddNode(cfg NodeConfig) (*Node, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("core: node without a name")
	}
	if _, dup := g.nodes[cfg.Name]; dup {
		return nil, fmt.Errorf("core: duplicate node %q", cfg.Name)
	}
	spec := hw.ReferenceMachine(cfg.Name)
	host, err := hostos.New(g.k, spec)
	if err != nil {
		return nil, fmt.Errorf("core: node %q: %w", cfg.Name, err)
	}
	n := &Node{
		grid:     g,
		name:     cfg.Name,
		site:     cfg.Site,
		role:     cfg.Role,
		host:     host,
		store:    storage.NewStore(host),
		images:   make(map[string]storage.ImageInfo),
		capacity: cfg.Slots,
	}
	if g.chunks != nil {
		n.store.SetChunkPlane(g.chunks)
	}
	n.vfsrv = vfs.NewServer(n.store)
	n.nic = g.net.AddNode(cfg.Name)
	if cfg.Role&RoleCompute != 0 {
		n.gk = gram.NewGatekeeper(host)
		n.gk.SetTracer(g.tracer)
		g.registry.Add(cfg.Name, n.gk)
		if n.capacity <= 0 {
			n.capacity = 1
		}
	}
	if cfg.DHCPPrefix != "" {
		size := cfg.DHCPSize
		if size <= 0 {
			size = 64
		}
		n.dhcpPrefix, n.dhcpSize = cfg.DHCPPrefix, size
		n.dhcp = vnet.NewDHCP(cfg.DHCPPrefix, size)
	}
	if err := g.info.Register(gis.KindHost, cfg.Name, map[string]any{
		gis.AttrSite:  cfg.Site,
		gis.AttrSpeed: spec.CPU.Speed,
	}, 0); err != nil {
		return nil, err
	}
	n.advertise()
	g.nodes[cfg.Name] = n
	i, _ := slices.BinarySearchFunc(g.order, cfg.Name, func(n *Node, name string) int { return strings.Compare(n.name, name) })
	g.order = slices.Insert(g.order, i, n)
	return n, nil
}

// Name returns the node name (also its network address).
func (n *Node) Name() string { return n.name }

// Site returns the administrative domain.
func (n *Node) Site() string { return n.site }

// Host returns the node's host OS.
func (n *Node) Host() *hostos.Host { return n.host }

// Store returns the node's local file store.
func (n *Node) Store() *storage.Store { return n.store }

// Slots returns the remaining VM capacity: the slots no listed
// incarnation holds.
func (n *Node) Slots() int { return n.capacity - len(n.incs) }

// Crashed reports whether the node is currently failed-stop.
func (n *Node) Crashed() bool { return n.crashed }

// PredictedLoad returns the last sample of the node's
// node.predicted_load telemetry series, which the scrape copies from
// the monitor's forecast. ok is false until that series holds a sample,
// which needs a running monitor and a Collector.Want of the name.
func (n *Node) PredictedLoad() (float64, bool) {
	if n.series == nil {
		return 0, false
	}
	return n.series.predicted.Last()
}

// advertise refreshes the node's VM-future record: what it is willing
// to instantiate right now, and its load — the monitor's forecast when
// one watches the node, else the load average. It is the record's only
// writer: slot changes, reboots and monitor ticks all come through
// here. Crashed nodes advertise nothing.
func (n *Node) advertise() {
	if n.role&RoleCompute == 0 || n.crashed {
		return
	}
	spec := n.host.Spec()
	err := n.grid.info.RegisterFrom(n.name, gis.KindVMFuture, n.name, map[string]any{
		gis.AttrSite:      n.site,
		gis.AttrSlots:     int64(n.Slots()),
		gis.AttrSpeed:     spec.CPU.Speed,
		gis.AttrMemBytes:  spec.MemBytes / 2,
		gis.AttrDiskBytes: spec.Disk.CapacityBytes,
		gis.AttrLoad:      n.grid.predictedLoad(n),
	}, 0)
	if err == nil || n.adRetry {
		return
	}
	// The origin cannot reach a registry quorum right now (partitioned,
	// or the registry side is down). The record is soft state: keep
	// retrying until the write lands, else the grid would keep routing
	// around this node after the fabric heals.
	n.adRetry = true
	n.grid.k.After(advertiseRetry, func() {
		n.adRetry = false
		n.advertise()
	})
}

// InstallImage archives a VM image on the node and advertises it. Any
// node can hold images, but typically image servers do.
func (n *Node) InstallImage(info storage.ImageInfo) error {
	if err := storage.InstallImage(n.store, info); err != nil {
		return fmt.Errorf("core: node %q: %w", n.name, err)
	}
	n.images[info.Name] = info
	return n.grid.info.Register(gis.KindImageServer, n.name+"/"+info.Name, map[string]any{
		gis.AttrImage:    info.Name,
		gis.AttrOS:       info.OS,
		gis.AttrSite:     n.site,
		gis.AttrWarm:     boolAttr(info.Warm()),
		gis.AttrMemBytes: info.MemBytes,
		"node":           n.name,
	}, 0)
}

// Image returns the metadata of an installed image.
func (n *Node) Image(name string) (storage.ImageInfo, bool) {
	info, ok := n.images[name]
	return info, ok
}

// CreateUserData provisions a user file on a data-server node.
func (n *Node) CreateUserData(file string, size int64) error {
	if err := n.store.Create(file, size); err != nil {
		return err
	}
	return n.grid.info.Register(gis.KindDataServer, n.name+"/"+file, map[string]any{
		gis.AttrSite: n.site,
		"node":       n.name,
		"file":       file,
	}, 0)
}

func boolAttr(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// CrashNode fail-stops a node: every attached link drops out of the
// topology, the VMs it hosts die with their in-memory guest state (a
// marooned incarnation's too), its VM-future advertisement disappears,
// and its DHCP leases are lost. The
// node's disk store survives the crash (it is back after RebootNode),
// but sessions that were running there lose everything since their last
// checkpoint — recovering them is the Supervisor's job. Crashing an
// already-crashed node is a no-op.
func (g *Grid) CrashNode(name string) error {
	n := g.nodes[name]
	if n == nil {
		return fmt.Errorf("%w: %q", ErrUnknownNode, name)
	}
	if n.crashed {
		return nil
	}
	n.crashed = true
	_ = g.net.SetNodeUp(name, false)
	g.info.Deregister(gis.KindVMFuture, name)
	for _, s := range g.sessionsOn(n) {
		s.crash()
	}
	for _, in := range n.incs {
		in.stop()
	}
	return nil
}

// RebootNode brings a crashed node back: links restore, the node lists
// no incarnation (the full slot capacity is free again), and a fresh
// DHCP pool comes up. Sessions that died in the crash do not come back
// by themselves.
func (g *Grid) RebootNode(name string) error {
	n := g.nodes[name]
	if n == nil {
		return fmt.Errorf("%w: %q", ErrUnknownNode, name)
	}
	if !n.crashed {
		return nil
	}
	n.crashed = false
	_ = g.net.SetNodeUp(name, true)
	if n.dhcpPrefix != "" {
		n.dhcp = vnet.NewDHCP(n.dhcpPrefix, n.dhcpSize)
	}
	n.incs = nil
	n.advertise()
	return nil
}

// sessionsOn returns the live sessions hosted by n in name order (the
// deterministic order fault handling iterates them in).
func (g *Grid) sessionsOn(n *Node) []*Session {
	var out []*Session
	for _, s := range g.live {
		if s.cur.node == n {
			out = append(out, s)
		}
	}
	return out
}

// liveIndex finds the named session in the name-sorted live list:
// its index, or where it would be inserted.
func (g *Grid) liveIndex(name string) (int, bool) {
	return slices.BinarySearchFunc(g.live, name, func(s *Session, name string) int {
		return strings.Compare(s.name, name)
	})
}

// liveSession returns the named live session, or nil.
func (g *Grid) liveSession(name string) *Session {
	if i, ok := g.liveIndex(name); ok {
		return g.live[i]
	}
	return nil
}

// setLive enters s in the live list, replacing any session of its name.
func (g *Grid) setLive(s *Session) {
	if i, ok := g.liveIndex(s.name); ok {
		g.live[i] = s
	} else {
		g.live = slices.Insert(g.live, i, s)
	}
}

// dropLive removes the named session from the live list, if present.
func (g *Grid) dropLive(name string) {
	if i, ok := g.liveIndex(name); ok {
		g.live = slices.Delete(g.live, i, i+1)
	}
}

// FindImage locates image servers holding the named image, closest
// (by unloaded network latency from the requesting node) first.
func (g *Grid) FindImage(image, from string) []gis.Entry {
	entries := g.info.Select(gis.KindImageServer, func(e gis.Entry) bool {
		return e.Str(gis.AttrImage) == image
	})
	// Order by latency from the requester; unreachable servers last.
	type scored struct {
		e   gis.Entry
		lat sim.Duration
		ok  bool
	}
	out := make([]scored, 0, len(entries))
	for _, e := range entries {
		lat, err := g.net.Latency(from, e.Str("node"), 1024)
		out = append(out, scored{e: e, lat: lat, ok: err == nil})
	}
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			less := func(a, b scored) bool {
				if a.ok != b.ok {
					return a.ok
				}
				return a.lat < b.lat
			}
			if less(out[j], out[i]) {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	result := make([]gis.Entry, len(out))
	for i, s := range out {
		result[i] = s.e
	}
	return result
}
