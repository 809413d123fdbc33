package core

import (
	"fmt"
	"sort"

	"vmgrid/internal/gis"
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
	fence    func() error
}

// CreateOption customizes one CreateSession call.
type CreateOption func(*createOptions)

// WithPlacer selects the placement policy for this session. nil (and
// no option at all) keeps the information service's ranking order —
// the advertised-load-ascending order every experiment before this
// subsystem was calibrated against.
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

// WithFence threads an admission fence into the session's start-vm
// job: the gatekeeper evaluates it immediately before instantiation
// and rejects the job on a non-nil error. Callers that race session
// creation against their own failover machinery use it the way the
// supervisor fences restores.
func WithFence(fence func() error) CreateOption {
	return func(o *createOptions) { o.fence = fence }
}

// SetDefaultPlacer installs a grid-wide placement policy consulted by
// every CreateSession call that does not carry its own WithPlacer.
// nil restores the information-service ranking default.
func (g *Grid) SetDefaultPlacer(p placement.Placer) { g.defaultPlacer = p }

// biReachable reports whether a and b can currently route to each
// other in both directions — the requirement for any control-plane
// exchange that needs a reply. Placement demands it of every probe
// node so a half-dead candidate with a muted transmit side cannot be
// chosen and hang the operation.
func (g *Grid) biReachable(a, b string) bool {
	if a == b {
		return true
	}
	if _, err := g.net.Latency(a, b, 0); err != nil {
		return false
	}
	if _, err := g.net.Latency(b, a, 0); err != nil {
		return false
	}
	return true
}

// futureCandidates converts VM-future entries (in the information
// service's ranking order) into placement candidates, dropping any
// that cannot actually host right now: crashed or non-compute nodes,
// full nodes, nodes missing a required image, the excluded node, and
// nodes not bidirectionally reachable from every probe node.
func (g *Grid) futureCandidates(futures []gis.Entry, image, exclude string, probes ...string) []placement.Candidate {
	out := make([]placement.Candidate, 0, len(futures))
next:
	for _, e := range futures {
		if e.Name == exclude {
			continue
		}
		n := g.nodes[e.Name]
		if n == nil || n.crashed || n.gk == nil || n.slots <= 0 {
			continue
		}
		if image != "" {
			if _, ok := n.Image(image); !ok {
				continue
			}
		}
		for _, p := range probes {
			if !g.biReachable(p, e.Name) {
				continue next
			}
		}
		out = append(out, placement.Candidate{
			Node:      e.Name,
			Site:      n.site,
			Slots:     n.slots,
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
	if g.monitor != nil {
		if _, ok := g.monitor.forecasts[n.name]; ok {
			return g.monitor.PredictedLoad(n.name)
		}
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

// placeFor picks the compute node for a new session. Without a policy
// or hint in play it reproduces the legacy behavior exactly — the
// first future in ranking order, no extra filters — so the calibrated
// experiments are byte-identical. With one, it runs the shared
// candidate path (filtering for a locally-required image) and applies
// the hint, then the policy.
func (g *Grid) placeFor(cfg SessionConfig, o createOptions, futures []gis.Entry) (*Node, error) {
	placer := o.placer
	if placer == nil {
		placer = g.defaultPlacer
	}
	if placer == nil && o.hint == "" {
		return g.nodes[futures[0].Name], nil
	}
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
	name, ok := placeWith(placer, placement.Request{
		User:        cfg.User,
		Image:       cfg.Image,
		Site:        cfg.Site,
		MinMemBytes: cfg.MemBytes,
	}, cands)
	if !ok {
		return nil, fmt.Errorf("%w: no candidate for image %q site %q", ErrNoFuture, cfg.Image, cfg.Site)
	}
	return g.nodes[name], nil
}

// sessionBusy reports whether any supervisor has the session mid-
// checkpoint or mid-recovery — states the balancer must not migrate
// under.
func (g *Grid) sessionBusy(name string) bool {
	for _, sup := range g.supervisors {
		if c := sup.charges[name]; c != nil && (c.recovering || c.checkpointing) {
			return true
		}
	}
	return false
}

// computeNodes returns the live compute nodes in name order.
func (g *Grid) computeNodes() []string {
	out := make([]string, 0, len(g.nodes))
	for name, n := range g.nodes {
		if n.gk != nil && !n.crashed {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
