package core

import (
	"errors"

	"vmgrid/internal/gis"
	"vmgrid/internal/placement"
)

// BalancerConfig configures the grid's autonomic load balancer: the
// generic hysteresis knobs plus the placement policy used to rank
// migration targets.
type BalancerConfig struct {
	placement.BalancerConfig
	// Placer ranks migration-target candidates; nil keeps the
	// information service's ranking (first viable future). The same
	// shared candidate path serves session creation and supervisor
	// restores, so the viability filters cannot drift apart.
	Placer placement.Placer
}

// gridFabric adapts the grid to the balancer's world view. Its load
// reads go through the telemetry TSDB a real deployment would scrape,
// rather than into simulator internals the balancer could never see.
type gridFabric struct {
	g      *Grid
	placer placement.Placer
}

func (f *gridFabric) Nodes() []string { return f.g.computeNodes() }

// NodeLoad is the balancer's hotspot signal for one node: the last
// value of the TSDB's node.predicted_load series, which the scrape loop
// copies from the monitor's forecast. ok is false until that series
// exists.
func (f *gridFabric) NodeLoad(node string) (float64, bool) {
	n := f.g.nodes[node]
	if n == nil || n.crashed || n.gk == nil {
		return 0, false
	}
	s := f.g.telemetry.DB().Lookup("node.predicted_load{node=" + node + "}")
	if s == nil || s.Len() == 0 {
		return 0, false
	}
	return s.Last().V, true
}

// Sessions lists the node's movable sessions, lowest eviction priority
// first (name-ordered within a priority). Sessions mid-migration,
// mid-checkpoint, or mid-recovery are not offered: the balancer must
// never contend with the supervisor for the same incarnation.
func (f *gridFabric) Sessions(node string) []string {
	n := f.g.nodes[node]
	if n == nil {
		return nil
	}
	var out []*Session
	for _, s := range f.g.sessionsOn(n) {
		if !s.state.CanMigrate() || s.cur.cow == nil || s.migrating || f.g.sessionBusy(s.name) {
			continue
		}
		out = append(out, s)
	}
	// sessionsOn is already name-sorted; a stable pass by priority
	// keeps the name order within each priority class.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].priority > out[j].priority; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	names := make([]string, len(out))
	for i, s := range out {
		names[i] = s.name
	}
	return names
}

// Target picks where the session should land, through the grid's
// shared placement path: same candidate filters as session creation
// and supervisor restores (image present, free slot, bidirectional
// reachability from the source and the front end), ranked by the
// balancer's policy.
func (f *gridFabric) Target(sess, from string) (string, bool) {
	s := f.g.liveSession(sess)
	if s == nil {
		return "", false
	}
	futures := f.g.info.FindFutures(gis.FutureQuery{
		MinMemBytes: s.cfg.MemBytes,
		Site:        s.cfg.Site,
	})
	cands := f.g.futureCandidates(futures, s.cfg.Image, from, from, s.cfg.FrontEnd)
	return placeWith(f.placer, placement.Request{
		Session:     sess,
		User:        s.cfg.User,
		Image:       s.cfg.Image,
		Site:        s.cfg.Site,
		MinMemBytes: s.cfg.MemBytes,
		Exclude:     from,
	}, cands)
}

// Migrate runs one fenced live migration on the balancer's behalf.
func (f *gridFabric) Migrate(sess, target string, done func(error)) error {
	s := f.g.liveSession(sess)
	if s == nil {
		return ErrBadSession
	}
	f.g.tracer.Metrics().Counter("core.balancer-migrations").Inc()
	return s.MigrateFenced(target, done)
}

// StartBalancer starts the autonomic load-balancing loop: it watches
// per-node predicted load, detects sustained hotspots with hysteresis,
// and relieves them with fenced live migrations (so a balancer move
// can never race a partition failover — the epoch machinery arbitrates).
// Its load signal is the telemetry pipeline's predicted-load series, so
// it needs telemetry enabled and a running monitor. Call Stop on the
// returned balancer to halt the loop.
func (g *Grid) StartBalancer(cfg BalancerConfig) (*placement.Balancer, error) {
	if !g.telemetry.Enabled() || g.monitor == nil || !g.monitor.running {
		return nil, errors.New("core: balancer needs telemetry enabled and a running monitor")
	}
	fab := &gridFabric{g: g, placer: cfg.Placer}
	b, err := placement.NewBalancer(g.k, fab, cfg.BalancerConfig)
	if err != nil {
		return nil, err
	}
	b.Start()
	return b, nil
}
