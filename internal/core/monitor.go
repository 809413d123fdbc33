package core

import (
	"vmgrid/internal/rps"
	"vmgrid/internal/sim"
)

// Monitor closes the paper's adaptation loop (§3.2, application
// perspective): per-node load sensors feed time series and predictors
// forecast near-future load. While the monitor runs, every VM-future
// advertisement (Node.advertise, the record's only writer) carries the
// *predicted* load — so FindFutures ranks placements by where load is
// going, not just where it is. Each tick re-advertises every compute
// node so the records follow the forecasts. Each watched node holds its
// own forecast (Node.forecast).
type Monitor struct {
	grid    *Grid
	running bool
	next    sim.EventID
	tickFn  func() // tick, bound once so rearming allocates nothing
	ticks   int
}

// forecast is one node's sensor, AR model, and memoized prediction.
// The prediction is a pure function of the sensor's history, so it is
// recomputed only when a new sample has arrived (the series' Total
// moved), however often the placement, balancer, telemetry, and GIS
// refresh paths ask for it in between.
type forecast struct {
	sensor *rps.Sensor
	model  *rps.AR
	at     uint64 // series Total the cached load was computed at
	load   float64
}

// monitorInterval is the host-load sensor and refresh cadence: 1 s, as
// in the original RPS toolkit.
const monitorInterval = sim.Second

// StartMonitor begins sampling every compute node's load once per
// monitorInterval and refreshing its VM future with the forecast.
func (g *Grid) StartMonitor() (*Monitor, error) {
	m := &Monitor{grid: g}
	for _, node := range g.order {
		if node.gk == nil {
			continue
		}
		host := node.host
		sensor, err := rps.NewSensor(g.k, monitorInterval, 512, func() float64 {
			return host.LoadAverage()
		})
		if err != nil {
			return nil, err
		}
		ar, err := rps.NewAR(8)
		if err != nil {
			return nil, err
		}
		node.forecast = &forecast{sensor: sensor, model: ar}
		sensor.Start()
	}
	m.tickFn = m.tick
	m.running = true
	g.monitor = m
	m.tick()
	return m, nil
}

// Monitor returns the grid's load monitor, or nil before StartMonitor.
func (g *Grid) Monitor() *Monitor { return g.monitor }

// Stop halts sampling and prediction.
func (m *Monitor) Stop() {
	if !m.running {
		return
	}
	m.running = false
	m.grid.k.Cancel(m.next)
	m.next = sim.EventID{}
	for _, n := range m.grid.order {
		if n.forecast != nil {
			n.forecast.sensor.Stop()
		}
	}
}

// PredictedLoad returns the current forecast for a node (falls back to
// the last sample until the model has enough history), or 0 for a node
// the monitor does not watch.
func (m *Monitor) PredictedLoad(node string) float64 {
	if n := m.grid.nodes[node]; n != nil && n.forecast != nil {
		return n.forecast.current()
	}
	return 0
}

// current returns the forecast, recomputing it only when the sensor
// has taken a new sample since the last call.
func (f *forecast) current() float64 {
	series := f.sensor.Series()
	if f.at != series.Total() {
		f.at, f.load = series.Total(), f.predict(series)
	}
	return f.load
}

// predict trains the model on the series' current history, read in
// place from its window.
func (f *forecast) predict(series *rps.Series) float64 {
	if series.Len() >= 32 {
		if err := f.model.Train(series.Window()); err == nil {
			p := f.model.Predict()
			if p < 0 {
				p = 0
			}
			return p
		}
	}
	return series.Last()
}

// tick re-advertises every compute node's VM future in name order, so
// the records carry the current forecasts. advertise skips crashed
// nodes and retries writes that miss a registry quorum.
func (m *Monitor) tick() {
	if !m.running {
		return
	}
	m.ticks++
	for _, n := range m.grid.order {
		n.advertise()
	}
	m.next = m.grid.k.After(monitorInterval, m.tickFn)
}

// Ticks returns how many refresh rounds have run.
func (m *Monitor) Ticks() int { return m.ticks }
