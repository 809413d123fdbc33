package core

import (
	"fmt"

	"vmgrid/internal/gis"
	"vmgrid/internal/rps"
	"vmgrid/internal/sim"
	"vmgrid/internal/telemetry"
)

// Monitor closes the paper's adaptation loop (§3.2, application
// perspective): per-node load sensors feed time series, predictors
// forecast near-future load, and the VM-future advertisements in the
// information service carry the *predicted* load — so FindFutures ranks
// placements by where load is going, not just where it is.
type Monitor struct {
	grid      *Grid
	interval  sim.Duration
	forecasts map[string]*forecast
	running   bool
	next      sim.EventID
	ticks     int
}

// forecast is one node's sensor, AR model, and memoized prediction.
// The prediction is a pure function of the sensor's history, so it is
// recomputed only when a new sample has arrived (the series' Total
// moved), however often the placement, balancer, telemetry, and GIS
// refresh paths ask for it in between.
type forecast struct {
	sensor *rps.Sensor
	model  *rps.AR
	buf    []float64 // reused training history
	at     uint64    // series Total the cached load was computed at
	load   float64
}

// StartMonitor begins sampling every compute node at the given interval
// (the RPS host-load sensor cadence; 1 s matches the original toolkit).
func (g *Grid) StartMonitor(interval sim.Duration) (*Monitor, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("core: monitor interval %v", interval)
	}
	m := &Monitor{
		grid:      g,
		interval:  interval,
		forecasts: make(map[string]*forecast),
	}
	for name, node := range g.nodes {
		if node.gk == nil {
			continue
		}
		host := node.host
		sensor, err := rps.NewSensor(g.k, interval, 512, func() float64 {
			return host.LoadAverage()
		})
		if err != nil {
			return nil, err
		}
		ar, err := rps.NewAR(8)
		if err != nil {
			return nil, err
		}
		// Tee every raw sensor reading into the telemetry store (no-op
		// while telemetry is off — g.telemetry is nil-safe).
		nodeName := name
		sensor.Tee(func(at sim.Time, v float64) {
			g.telemetry.Record("node.load_sample", v, telemetry.L("node", nodeName))
		})
		m.forecasts[name] = &forecast{sensor: sensor, model: ar}
		sensor.Start()
	}
	m.running = true
	m.tick()
	g.monitor = m
	return m, nil
}

// Stop halts sampling and prediction.
func (m *Monitor) Stop() {
	if !m.running {
		return
	}
	m.running = false
	m.grid.k.Cancel(m.next)
	m.next = sim.EventID{}
	for _, f := range m.forecasts {
		f.sensor.Stop()
	}
}

// PredictedLoad returns the current forecast for a node (falls back to
// the last sample until the model has enough history).
func (m *Monitor) PredictedLoad(node string) float64 {
	f, ok := m.forecasts[node]
	if !ok {
		return 0
	}
	series := f.sensor.Series()
	if f.at != series.Total() {
		f.at, f.load = series.Total(), f.predict(series)
	}
	return f.load
}

// predict trains the model on the series' current history.
func (f *forecast) predict(series *rps.Series) float64 {
	if series.Len() >= 32 {
		f.buf = series.AppendValues(f.buf[:0])
		if err := f.model.Train(f.buf); err == nil {
			p := f.model.Predict()
			if p < 0 {
				p = 0
			}
			return p
		}
	}
	return series.Last()
}

// tick refreshes every compute node's VM-future record with the
// predicted load.
func (m *Monitor) tick() {
	if !m.running {
		return
	}
	m.ticks++
	for name, node := range m.grid.nodes {
		if node.gk == nil {
			continue
		}
		spec := node.host.Spec()
		_ = m.grid.info.Register(gis.KindVMFuture, name, map[string]any{
			gis.AttrSite:      node.site,
			gis.AttrSlots:     int64(node.slots),
			gis.AttrSpeed:     spec.CPU.Speed,
			gis.AttrMemBytes:  spec.MemBytes / 2,
			gis.AttrDiskBytes: spec.Disk.CapacityBytes,
			gis.AttrLoad:      m.PredictedLoad(name),
		}, 0)
	}
	m.next = m.grid.k.After(m.interval, m.tick)
}

// Ticks returns how many refresh rounds have run.
func (m *Monitor) Ticks() int { return m.ticks }
