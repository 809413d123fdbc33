package core

import (
	"errors"

	"vmgrid/internal/placement"
)

// gridFabric adapts the grid to the balancer's world view. Its load
// reads go through the telemetry TSDB a real deployment would scrape,
// rather than into simulator internals the balancer could never see.
type gridFabric struct {
	g *Grid
}

func (f *gridFabric) Nodes() []string { return f.g.computeNodes() }

// NodeLoad is the balancer's hotspot signal for one node: the last
// value of the TSDB's node.predicted_load series, which the scrape loop
// copies from the monitor's forecast, read through the node's own
// series handle. ok is false until that series holds a sample.
func (f *gridFabric) NodeLoad(node string) (float64, bool) {
	n := f.g.nodes[node]
	if n == nil || n.crashed || n.gk == nil {
		return 0, false
	}
	return n.PredictedLoad()
}

// Sessions lists the node's movable sessions in name order, the
// balancer's eviction order. Sessions with an op in flight
// (a migration, checkpoint or recovery) are not offered: the balancer
// must never contend with the supervisor for the same incarnation.
func (f *gridFabric) Sessions(node string) []string {
	n := f.g.nodes[node]
	if n == nil {
		return nil
	}
	var names []string
	for _, s := range f.g.sessionsOn(n) {
		if !s.state.CanMigrate() || s.cur.cow == nil || s.op != nil {
			continue
		}
		names = append(names, s.name)
	}
	return names
}

// Target picks where the session should land, through the grid's
// shared placement path: same candidate filters as session creation
// and supervisor restores (image present, free slot, bidirectional
// reachability from the source and the front end), ranked least-loaded
// first.
func (f *gridFabric) Target(sess, from string) (string, bool) {
	s := f.g.liveSession(sess)
	if s == nil {
		return "", false
	}
	return f.g.placeSession(f.g.info, placement.LeastLoaded{}, s, from, from, s.cfg.FrontEnd)
}

// Migrate runs one fenced live migration on the balancer's behalf.
func (f *gridFabric) Migrate(sess, target string, done func(error)) error {
	s := f.g.liveSession(sess)
	if s == nil {
		return ErrBadSession
	}
	return s.MigrateFenced(target, done)
}

// StartBalancer starts the autonomic load-balancing loop: it watches
// per-node predicted load, detects sustained hotspots with hysteresis,
// and relieves them with fenced live migrations (so a balancer move
// can never race a partition failover — the epoch machinery arbitrates).
// Its load signal is the telemetry pipeline's predicted-load series, so
// it needs telemetry enabled and a running monitor. Call Stop on the
// returned balancer to halt the loop.
func (g *Grid) StartBalancer() (*placement.Balancer, error) {
	if !g.telemetry.Enabled() || g.monitor == nil || !g.monitor.running {
		return nil, errors.New("core: balancer needs telemetry enabled and a running monitor")
	}
	g.telemetry.Want("node.predicted_load")
	b := placement.NewBalancer(g.k, &gridFabric{g: g})
	b.Start()
	return b, nil
}
