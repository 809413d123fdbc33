// Package vnet implements the paper's virtual networking layer (§3.3):
// how a dynamically created VM gets a network identity. Two scenarios are
// supported, matching the paper:
//
//  1. The VM host's site hands out addresses to VM instances — a DHCP
//     pool per site.
//  2. The site does not provide addresses — traffic is tunneled at the
//     Ethernet level back to the user's network, optionally through a
//     self-optimizing overlay among the user's VMs (à la resilient
//     overlay networks).
package vnet

import (
	"errors"
	"fmt"
	"sort"

	"vmgrid/internal/netsim"
	"vmgrid/internal/sim"
)

// Sentinel errors.
var (
	ErrPoolExhausted = errors.New("vnet: address pool exhausted")
	ErrNotLeased     = errors.New("vnet: address not leased")
)

// DHCP is a per-site address pool for dynamic VM instances.
type DHCP struct {
	prefix string
	next   int
	max    int
	free   []string
	leased map[string]string // addr -> owner
}

// NewDHCP creates a pool of n addresses under prefix (e.g. "10.1.0.").
func NewDHCP(prefix string, n int) *DHCP {
	return &DHCP{prefix: prefix, next: 1, max: n, leased: make(map[string]string)}
}

// Lease assigns an address to owner.
func (d *DHCP) Lease(owner string) (string, error) {
	if len(d.free) > 0 {
		addr := d.free[len(d.free)-1]
		d.free = d.free[:len(d.free)-1]
		d.leased[addr] = owner
		return addr, nil
	}
	if d.next > d.max {
		return "", fmt.Errorf("%w: %s (%d addresses)", ErrPoolExhausted, d.prefix, d.max)
	}
	addr := fmt.Sprintf("%s%d", d.prefix, d.next)
	d.next++
	d.leased[addr] = owner
	return addr, nil
}

// Release returns an address to the pool.
func (d *DHCP) Release(addr string) error {
	if _, ok := d.leased[addr]; !ok {
		return fmt.Errorf("%w: %s", ErrNotLeased, addr)
	}
	delete(d.leased, addr)
	d.free = append(d.free, addr)
	return nil
}

// Owner returns who holds addr ("" if unleased).
func (d *DHCP) Owner(addr string) string { return d.leased[addr] }

// Leased returns the number of outstanding leases.
func (d *DHCP) Leased() int { return len(d.leased) }

// frameOverheadBytes is the per-frame encapsulation cost of Ethernet
// tunneling (outer Ethernet + IP + UDP/SSH framing).
const frameOverheadBytes = 90

// Tunnel carries Ethernet frames between a remote VM's host and the
// user's local network, making the VM appear attached there. The paper
// notes the control connection used to launch the VM (e.g. SSH) can
// carry it.
type Tunnel struct {
	a, b *netsim.Node

	frames uint64
	bytes  uint64
}

// EstablishTunnel creates a tunnel between two attached nodes. It fails
// unless frames can route both ways (you cannot tunnel over a
// partition, not even a one-way one).
func EstablishTunnel(n *netsim.Network, a, b string) (*Tunnel, error) {
	na, nb := n.Node(a), n.Node(b)
	if na == nil || nb == nil {
		return nil, fmt.Errorf("vnet: tunnel %s<->%s: unknown node", a, b)
	}
	if !n.Reachable(na, nb) {
		return nil, fmt.Errorf("vnet: tunnel %s<->%s: %w", a, b, netsim.ErrNoRoute)
	}
	return &Tunnel{a: na, b: nb}, nil
}

// Endpoints returns the tunnel's two ends.
func (t *Tunnel) Endpoints() (string, string) { return t.a.Name(), t.b.Name() }

// Frames returns the number of frames carried.
func (t *Tunnel) Frames() uint64 { return t.frames }

// Bytes returns payload bytes carried (excluding encapsulation).
func (t *Tunnel) Bytes() uint64 { return t.bytes }

// Send carries one frame from one end to the other. from must be one of
// the endpoints.
func (t *Tunnel) Send(from string, size int64, payload any, deliver func(any)) error {
	src, dst := t.a, t.b
	switch from {
	case t.a.Name():
	case t.b.Name():
		src, dst = t.b, t.a
	default:
		return fmt.Errorf("vnet: %q is not a tunnel endpoint", from)
	}
	t.frames++
	t.bytes += uint64(size)
	return src.Send(dst, size+frameOverheadBytes, payload, deliver)
}

// Overlay is a self-optimizing virtual network among the VMs of one
// user or application: each pair of members communicates either directly
// or through one relay member, whichever the last optimization pass
// measured as faster (cf. resilient overlay networks).
type Overlay struct {
	net     *netsim.Network
	members []string
	// via[a][b] is the relay for a->b, or "" for direct.
	via map[string]map[string]string

	frames uint64
}

// NewOverlay builds an overlay among the given member nodes and runs an
// initial optimization pass.
func NewOverlay(n *netsim.Network, members ...string) (*Overlay, error) {
	if len(members) < 2 {
		return nil, fmt.Errorf("vnet: overlay needs at least 2 members, got %d", len(members))
	}
	for _, m := range members {
		if n.Node(m) == nil {
			return nil, fmt.Errorf("vnet: overlay member %q not attached", m)
		}
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	o := &Overlay{net: n, members: sorted}
	o.Optimize()
	return o, nil
}

// Members returns the member nodes.
func (o *Overlay) Members() []string {
	return append([]string(nil), o.members...)
}

// Frames returns the number of messages carried.
func (o *Overlay) Frames() uint64 { return o.frames }

// Optimize measures pairwise latency (for a representative 1 KB probe)
// and picks, for every ordered pair, the best of the direct path and
// every one-relay detour. Call it again after topology changes — the
// overlay "optimizes itself with respect to the communication between
// the virtual machines".
func (o *Overlay) Optimize() {
	probe := int64(1024)
	lat := func(a, b string) (sim.Duration, bool) {
		d, err := o.net.Latency(a, b, probe)
		if err != nil {
			return 0, false
		}
		return d, true
	}
	o.via = make(map[string]map[string]string, len(o.members))
	for _, a := range o.members {
		o.via[a] = make(map[string]string)
		for _, b := range o.members {
			if a == b {
				continue
			}
			best, okDirect := lat(a, b)
			relay := ""
			for _, r := range o.members {
				if r == a || r == b {
					continue
				}
				d1, ok1 := lat(a, r)
				d2, ok2 := lat(r, b)
				if !ok1 || !ok2 {
					continue
				}
				if !okDirect || d1+d2 < best {
					best = d1 + d2
					relay = r
					okDirect = true
				}
			}
			o.via[a][b] = relay
		}
	}
}

// Via returns the relay chosen for a->b ("" means direct).
func (o *Overlay) Via(a, b string) string {
	if m, ok := o.via[a]; ok {
		return m[b]
	}
	return ""
}

// Send routes a message between members along the optimized path.
func (o *Overlay) Send(a, b string, size int64, payload any, deliver func(any)) error {
	if a == b {
		return fmt.Errorf("vnet: overlay self-send")
	}
	m, ok := o.via[a]
	if !ok {
		return fmt.Errorf("vnet: %q is not an overlay member", a)
	}
	if _, isMember := o.via[b]; !isMember {
		return fmt.Errorf("vnet: %q is not an overlay member", b)
	}
	o.frames++
	size += frameOverheadBytes
	if relay := m[b]; relay != "" {
		return o.net.Send(a, relay, size, payload, func(p any) {
			// Relay hop: forward to the destination.
			_ = o.net.Send(relay, b, size, p, deliver)
		})
	}
	return o.net.Send(a, b, size, payload, deliver)
}
