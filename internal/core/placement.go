package core

import (
	"fmt"

	"vmgrid/internal/gis"
	"vmgrid/internal/netsim"
	"vmgrid/internal/placement"
)

// This file is the grid's single placement code path. Session creation
// (CreateSession), the supervisor's restore-target choice, and the
// balancer's migration-target choice all build their candidate lists
// here — same filters, same bidirectional-reachability probes — and
// then apply a placement.Placer. Before this, the front end and the
// supervisor each had a private node-picking loop, and the PR 7
// reachability checks only guarded one of them.

// createOptions collects the functional options of CreateSession.
type createOptions struct {
	placer   placement.Placer
	hint     string
	priority int
}

// CreateOption customizes one CreateSession call.
type CreateOption func(*createOptions)

// WithPlacer selects the placement policy for this session. nil (and
// no option at all) takes the first viable candidate in the
// information service's ranking order — advertised load ascending.
func WithPlacer(p placement.Placer) CreateOption {
	return func(o *createOptions) { o.placer = p }
}

// WithNodeHint prefers the named compute node: if it is a viable
// candidate (alive, free slot, image when required) the session lands
// there; otherwise placement falls through to the policy. A hint is a
// preference, not a pin.
func WithNodeHint(node string) CreateOption {
	return func(o *createOptions) { o.hint = node }
}

// WithPriority sets the session's eviction priority. The balancer
// relieves hotspots lowest-priority-first, so a high-priority session
// migrates only after its lower-priority neighbors. Default 0.
func WithPriority(p int) CreateOption {
	return func(o *createOptions) { o.priority = p }
}

// futureCandidates converts VM-future entries (in the information
// service's ranking order) into placement candidates, dropping any
// that cannot actually host right now: crashed or non-compute nodes,
// full nodes, nodes missing a required image, the excluded node, and
// nodes not bidirectionally reachable from every probe node. Two-way
// reachability is what any control-plane exchange that needs a reply
// requires, so a half-dead candidate with a muted transmit side cannot
// be chosen and hang the operation.
func (g *Grid) futureCandidates(futures []gis.Entry, image, exclude string, probes ...string) []placement.Candidate {
	var buf [2]*netsim.Node // probes resolved once, on the stack
	nics := buf[:0]
	for _, p := range probes {
		nics = append(nics, g.net.Node(p))
	}
	out := make([]placement.Candidate, 0, len(futures))
next:
	for _, e := range futures {
		if e.Name == exclude {
			continue
		}
		n := g.nodes[e.Name]
		if n == nil || n.crashed || n.gk == nil || n.Slots() <= 0 {
			continue
		}
		if image != "" {
			if _, ok := n.Image(image); !ok {
				continue
			}
		}
		for _, p := range nics {
			if !g.net.Reachable(p, n.nic) {
				continue next
			}
		}
		out = append(out, placement.Candidate{
			Node:      e.Name,
			Site:      n.site,
			Slots:     n.Slots(),
			Speed:     n.host.Spec().CPU.Speed,
			Load:      n.host.LoadAverage(),
			Predicted: g.predictedLoad(n),
		})
	}
	return out
}

// predictedLoad is the node's RPS forecast when the monitor watches
// it, else its live load average.
func (g *Grid) predictedLoad(n *Node) float64 {
	if n.forecast != nil {
		return n.forecast.current()
	}
	return n.host.LoadAverage()
}

// placeWith applies a policy to pre-filtered candidates. A nil placer
// keeps the information service's ranking: first fit.
func placeWith(p placement.Placer, req placement.Request, cands []placement.Candidate) (string, bool) {
	if len(cands) == 0 {
		return "", false
	}
	if p == nil {
		return cands[0].Node, true
	}
	return p.Pick(req, cands)
}

// placeFor picks the compute node for a new session through the
// shared candidate path: drop futures that cannot host (filtering for
// a locally-required image), honor the hint, then apply the policy —
// first fit when there is none.
func (g *Grid) placeFor(cfg SessionConfig, o createOptions, futures []gis.Entry) (*Node, error) {
	image := ""
	if cfg.Access == AccessLocal || cfg.Access == AccessLoopback {
		// These modes can only start where the image is installed;
		// filtering here keeps the policy from picking a node that
		// would fail at image-resolution time.
		image = cfg.Image
	}
	cands := g.futureCandidates(futures, image, "")
	if o.hint != "" {
		for _, c := range cands {
			if c.Node == o.hint {
				return g.nodes[o.hint], nil
			}
		}
	}
	name, ok := placeWith(o.placer, placement.Request{
		User:        cfg.User,
		Image:       cfg.Image,
		Site:        cfg.Site,
		MinMemBytes: cfg.MemBytes,
	}, cands)
	if ok {
		return g.nodes[name], nil
	}
	if image != "" && len(g.futureCandidates(futures, "", "")) > 0 {
		return nil, fmt.Errorf("%w: %q not installed on any viable node (access %v)", ErrNoImage, image, cfg.Access)
	}
	return nil, fmt.Errorf("%w: no candidate for image %q site %q", ErrNoFuture, cfg.Image, cfg.Site)
}

// sessionBusy reports whether any supervisor has the session mid-
// checkpoint or mid-recovery — states the balancer must not migrate
// under.
func (g *Grid) sessionBusy(name string) bool {
	for _, sup := range g.supervisors {
		if c := sup.charge(name); c != nil && (c.recovering || c.checkpointing) {
			return true
		}
	}
	return false
}

// computeNodes returns the live compute nodes in name order.
func (g *Grid) computeNodes() []string {
	out := make([]string, 0, len(g.order))
	for _, n := range g.order {
		if n.gk != nil && !n.crashed {
			out = append(out, n.name)
		}
	}
	return out
}
