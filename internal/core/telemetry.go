package core

import (
	"fmt"
	"slices"

	"vmgrid/internal/gis"
	"vmgrid/internal/telemetry"
)

// EnableTelemetry attaches a telemetry collector to the grid: every
// scrape records per-node gauges (runnable processes, load average,
// free slots, crash state, and — once StartMonitor runs — the RPS
// predicted load), per-session gauges (VM slowdown, VFS cache hit
// rate, and the transport-error count), and supervisor lease ages,
// plus the grid tracer's counter registry when a tracer is set. The
// standard SLO rules (see DefaultAlertRules) are installed, and alert
// firings are mirrored into GIS soft state as KindAlert entries so
// middleware discovers SLO violations the way it discovers hosts.
// Only the series someone reads are scraped: the rules' series, what
// callers declare with Collector.Want, or everything after WantAll.
//
// Call EnableTelemetry after SetTracer (the tracer registry is captured
// here); supervisors and the monitor may be created before or after.
// The collector is returned for rule registration and export; it is
// also reachable via Telemetry. Scraping only reads fabric state, so
// enabling telemetry never changes simulation outcomes.
func (g *Grid) EnableTelemetry() (*telemetry.Collector, error) {
	if g.telemetry != nil {
		return nil, fmt.Errorf("core: telemetry already enabled")
	}
	col, err := telemetry.NewCollector(g.k, g.tracer)
	if err != nil {
		return nil, err
	}
	g.telemetry = col

	col.AddSource(g.scrapeNodes)
	col.AddSource(g.scrapeSessions)
	col.AddSource(g.scrapeLeases)
	col.AddSource(g.scrapeGIS)
	col.AddSource(g.scrapeStaging)
	if g.tracer != nil {
		col.AttachRegistry("grid", g.tracer.Metrics())
	}

	// Mirror firings into the information service: alerts are soft state
	// like everything else in the GIS, keyed rule/series.
	col.OnFire(func(f telemetry.Firing) {
		_ = g.info.Register(gis.KindAlert, f.Rule+"/"+f.Series, map[string]any{
			"rule":   f.Rule,
			"series": f.Series,
			"value":  f.Value,
		}, 0)
		// An SLO alert is an incident trigger: freeze the flight
		// recorder's recent past as a bundle (no-op without a recorder).
		g.incidentNow("alert:"+f.Rule, f.Series)
	})
	col.OnResolve(func(f telemetry.Firing) {
		g.info.Deregister(gis.KindAlert, f.Rule+"/"+f.Series)
	})
	return col, nil
}

// Telemetry returns the grid's collector (nil when telemetry is off —
// and a nil collector is itself safe to use).
func (g *Grid) Telemetry() *telemetry.Collector { return g.telemetry }

// DefaultAlertRules installs the standard SLO rules:
//
//   - slowdown: mean VM slowdown over 30 s exceeds Figure 1's ≤10%
//     virtualization budget for 30 s.
//   - stale-lease: a session's lease has not been renewed for more than
//     two supervisor heartbeats (4 s) — the telemetry-side shadow of the
//     supervisor's lease-expiry failure detector, which waits for the
//     three-heartbeat leaseTTL.
//   - split-brain-risk: minority-side registry writes are being
//     rejected — some node is partitioned from the GIS quorum and its
//     sessions are failover candidates. (The series only exists on
//     replicated grids, so the rule is inert otherwise.)
func (g *Grid) DefaultAlertRules() error {
	col := g.telemetry
	if col == nil {
		return fmt.Errorf("core: default alert rules without telemetry")
	}
	rules := []struct{ name, expr string }{
		{"slowdown", "mean(session.slowdown, 30s) > 1.10 for 30s"},
		{"stale-lease", fmt.Sprintf("last(lease.age) > %g", (2 * heartbeatInterval).Seconds())},
		{"split-brain-risk", "rate(gis.minority_writes, 10s) > 0"},
	}
	for _, r := range rules {
		if err := col.AddRule(r.name, r.expr); err != nil {
			return err
		}
	}
	return nil
}

// NodeNames returns every node name, sorted — the deterministic scrape
// and display order. The slice is the caller's.
func (g *Grid) NodeNames() []string {
	out := make([]string, len(g.order))
	for i, n := range g.order {
		out[i] = n.name
	}
	return out
}

// LiveSessions returns the live sessions in name order. The slice is
// the caller's.
func (g *Grid) LiveSessions() []*Session { return slices.Clone(g.live) }

// The scrape sources record through series handles held by what they
// describe: a node's, a live session's, and a supervised charge's
// handles are resolved on its first scrape and kept for its lifetime,
// so they are resolved again only when a node or session appears. (A
// handle binds its series on its first sample, so no series exists
// earlier than a keyed Record would have made it.) A source asks each
// handle whether anyone reads its name (Handle.Wanted) and computes
// only what is read. Every handle of one name gives the same answer,
// so a source whose first handles are all unwanted records nothing and
// stops there.
type nodeSeries struct {
	crashed, runnable, load, slots, predicted *telemetry.Handle
}

type sessionSeries struct {
	slowdown, hitRate, transportErrors *telemetry.Handle
}

type leaseSeries struct {
	age, epoch *telemetry.Handle
}

// The grid-wide staging and registry series are held by the grid,
// resolved on the first scrape that records them.
type stagingSeries struct {
	hits, misses, saved *telemetry.Handle
}

type gisSeries struct {
	lag      []*telemetry.Handle // per replica, in cluster order
	minority *telemetry.Handle
}

// anyWanted reports whether anyone reads one of hs.
func anyWanted(hs ...*telemetry.Handle) bool {
	for _, h := range hs {
		if h.Wanted() {
			return true
		}
	}
	return false
}

func (g *Grid) scrapeNodes(r *telemetry.Recorder) {
	for _, n := range g.order {
		ts := n.series
		if ts == nil {
			lbl := telemetry.L("node", n.name)
			ts = &nodeSeries{
				crashed:   r.Handle("node.crashed", lbl),
				runnable:  r.Handle("node.runnable", lbl),
				load:      r.Handle("node.load", lbl),
				slots:     r.Handle("node.slots", lbl),
				predicted: r.Handle("node.predicted_load", lbl),
			}
			n.series = ts
		}
		if !anyWanted(ts.crashed, ts.runnable, ts.load, ts.slots, ts.predicted) {
			return
		}
		if ts.crashed.Wanted() {
			v := 0.0
			if n.crashed {
				v = 1
			}
			r.Put(ts.crashed, v)
		}
		if n.crashed {
			continue
		}
		if ts.runnable.Wanted() {
			r.Put(ts.runnable, float64(n.host.Runnable()))
		}
		if ts.load.Wanted() {
			r.Put(ts.load, n.host.LoadAverage())
		}
		if ts.slots.Wanted() {
			r.Put(ts.slots, float64(n.Slots()))
		}
		if ts.predicted.Wanted() && n.forecast != nil {
			r.Put(ts.predicted, n.forecast.current())
		}
	}
}

func (g *Grid) scrapeSessions(r *telemetry.Recorder) {
	for _, s := range g.live {
		ts := s.series
		if ts == nil {
			lbl := telemetry.L("sess", s.name)
			ts = &sessionSeries{
				slowdown:        r.Handle("session.slowdown", lbl),
				hitRate:         r.Handle("vfs.hit_rate", lbl),
				transportErrors: r.Handle("vfs.transport_errors", lbl),
			}
			s.series = ts
		}
		slowdown, counters := ts.slowdown.Wanted(), anyWanted(ts.hitRate, ts.transportErrors)
		if !slowdown && !counters {
			return
		}
		if slowdown {
			if u := s.Usage(); u.GuestUserSeconds > 0 {
				r.Put(ts.slowdown, u.CPUSeconds/u.GuestUserSeconds)
			}
		}
		if !counters {
			continue
		}
		v := s.VFSCounters()
		if rate, ok := v.HitRate(); ok && ts.hitRate.Wanted() {
			r.Put(ts.hitRate, rate)
		}
		if ts.transportErrors.Wanted() {
			r.Put(ts.transportErrors, float64(v.TransportErrors))
		}
	}
}

func (g *Grid) scrapeLeases(r *telemetry.Recorder) {
	for _, sup := range g.supervisors {
		for _, c := range sup.charges {
			if c.lastRenew < 0 {
				continue
			}
			ts := c.series
			if ts == nil {
				lbl := telemetry.L("sess", c.s.name)
				ts = &leaseSeries{age: r.Handle("lease.age", lbl), epoch: r.Handle("session.epoch", lbl)}
				c.series = ts
			}
			if !anyWanted(ts.age, ts.epoch) {
				return
			}
			if ts.age.Wanted() {
				r.Put(ts.age, r.At().Sub(c.lastRenew).Seconds())
			}
			if ts.epoch.Wanted() {
				r.Put(ts.epoch, float64(c.s.epoch))
			}
		}
	}
}

// scrapeStaging records the chunked-transfer plane's grid-wide dedup
// counters when chunked staging is enabled: cache hits and misses (in
// chunks) and the payload bytes those hits kept off the wire. The
// series are cumulative counters, so rate() works on them.
func (g *Grid) scrapeStaging(r *telemetry.Recorder) {
	if g.chunks == nil {
		return
	}
	ts := g.stagingSeries
	if ts == nil {
		ts = &stagingSeries{
			hits:   r.Handle("staging.chunk.hits"),
			misses: r.Handle("staging.chunk.misses"),
			saved:  r.Handle("staging.bytes_saved"),
		}
		g.stagingSeries = ts
	}
	if !anyWanted(ts.hits, ts.misses, ts.saved) {
		return
	}
	st := g.chunks.Stats()
	if ts.hits.Wanted() {
		r.Put(ts.hits, float64(st.Hits))
	}
	if ts.misses.Wanted() {
		r.Put(ts.misses, float64(st.Misses))
	}
	if ts.saved.Wanted() {
		r.Put(ts.saved, float64(st.BytesSaved))
	}
}

// scrapeGIS records replication health when the registry is clustered:
// per-replica staleness relative to the newest write anywhere
// (gis.replica.lag) and the running count of quorum-rejected writes
// (gis.minority_writes) that the split-brain-risk rule watches.
func (g *Grid) scrapeGIS(r *telemetry.Recorder) {
	cl := g.info.Cluster()
	if cl == nil {
		return
	}
	ts := g.gisSeries
	if ts == nil {
		ts = &gisSeries{minority: r.Handle("gis.minority_writes")}
		for i := 0; i < cl.Size(); i++ {
			ts.lag = append(ts.lag, r.Handle("gis.replica.lag", telemetry.L("replica", cl.Node(i))))
		}
		g.gisSeries = ts
	}
	for i, h := range ts.lag {
		if h.Wanted() {
			r.Put(h, cl.Lag(i).Seconds())
		}
	}
	if ts.minority.Wanted() {
		r.Put(ts.minority, float64(cl.MinorityWrites()))
	}
}
