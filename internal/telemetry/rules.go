package telemetry

import (
	"fmt"
	"strconv"
	"strings"

	"vmgrid/internal/sim"
)

// Alert rules are declarative threshold + for-duration conditions over
// the stored series, in a grammar small enough to read in full:
//
//	rule     := expr ">" number [ "for" duration ]
//	expr     := func "(" name [ "," duration ] ")" | name
//	func     := "mean" | "rate" | "last"
//	duration := float unit, unit in us|ms|s|m|h
//
// A bare name means last(name). The function's duration is the sliding
// window (default: the whole retained history; rate defaults to 10 s).
// A rule matches every series of its name — it tracks an independent
// state machine per series, so `last(lease.age) > 4` watches every
// session's lease at once.
//
// Examples:
//
//	mean(session.slowdown, 30s) > 1.10 for 30s
//	last(lease.age) > 4
//	rate(gis.minority_writes, 10s) > 0
//
// Evaluation runs after every scrape: rules in registration order,
// matching series in key order — deterministic, so firings are
// byte-identical at any experiment worker count.

// RuleFunc identifies the aggregation a rule applies to its window.
type RuleFunc string

// Rule aggregation functions.
const (
	FuncMean RuleFunc = "mean"
	FuncRate RuleFunc = "rate"
	FuncLast RuleFunc = "last"
)

// defaultRateWindow is the rate() window when the rule names none.
const defaultRateWindow = 10 * sim.Second

// rule is one parsed alert rule, with the series it selects and the
// state machine of every series it currently holds pending or firing.
type rule struct {
	name      string
	expr      string
	fn        RuleFunc
	series    string
	window    sim.Duration // 0 = whole retained history
	threshold float64
	forDur    sim.Duration

	// bound holds every series of the name, in canonical-key order:
	// DB.create appends each one as it is born. late holds those born
	// while the rule's own pass runs (by a hook), which join bound when
	// the pass ends, so the pass never sees a series it did not start
	// with.
	bound   []*Series
	late    []*Series
	walking bool

	states map[*Series]*alertState
}

// bind adds a newly created series to the rule's selection.
func (r *rule) bind(s *Series) {
	if r.walking {
		r.late = append(r.late, s)
		return
	}
	r.bound = insertByKey(r.bound, s)
}

// RuleInfo describes a registered rule.
type RuleInfo struct {
	Name string `json:"name"`
	Expr string `json:"expr"`
}

// Firing is one alert activation: rule, the concrete series that
// tripped it, when, at what value, and when it cleared (ResolvedAt < 0
// while still active).
type Firing struct {
	Rule       string   `json:"rule"`
	Series     string   `json:"series"`
	At         sim.Time `json:"atUs"`
	Value      float64  `json:"value"`
	ResolvedAt sim.Time `json:"resolvedUs"`
}

// alertState tracks one (rule, series) pair: inactive -> pending (the
// condition holds, the for-duration is running) -> firing.
type alertState struct {
	pending      bool
	pendingSince sim.Time
	firing       bool
	firingIdx    int // index into engine.firings while firing
}

// Engine evaluates the rules after each scrape and keeps the firing
// log.
type Engine struct {
	c         *Collector
	rules     []*rule
	firings   []Firing
	onFire    []func(Firing)
	onResolve []func(Firing)
}

func newEngine(c *Collector) *Engine {
	return &Engine{c: c}
}

func (e *Engine) addRule(name, expr string) error {
	if name == "" {
		return fmt.Errorf("telemetry: rule without a name")
	}
	for _, r := range e.rules {
		if r.name == name {
			return fmt.Errorf("telemetry: duplicate rule %q", name)
		}
	}
	r, err := parseRule(expr)
	if err != nil {
		return fmt.Errorf("telemetry: rule %q: %w", name, err)
	}
	r.name = name
	r.states = make(map[*Series]*alertState)
	e.rules = append(e.rules, r)
	e.c.db.bindRule(r)
	e.c.Want(r.series)
	return nil
}

func (e *Engine) rulesInfo() []RuleInfo {
	out := make([]RuleInfo, len(e.rules))
	for i, r := range e.rules {
		out[i] = RuleInfo{Name: r.name, Expr: r.expr}
	}
	return out
}

// eval runs every rule against the series bound to it.
func (e *Engine) eval(now sim.Time) {
	for _, r := range e.rules {
		// Hooks run mid-loop and may create series; while walking, the
		// rule parks its new ones in late, so bound does not shift.
		r.walking = true
		for _, s := range r.bound {
			e.evalSeries(r, s, now)
		}
		r.walking = false
		for _, s := range r.late {
			r.bound = insertByKey(r.bound, s)
		}
		r.late = r.late[:0]
	}
}

// evalSeries steps one (rule, series) state machine.
func (e *Engine) evalSeries(r *rule, s *Series, now sim.Time) {
	v, ok := r.value(s, now)
	if !ok || !(v > r.threshold) {
		e.clear(r, s, now)
		return
	}
	st := r.states[s]
	if st == nil {
		st = &alertState{}
		r.states[s] = st
	}
	if st.firing {
		return
	}
	if !st.pending {
		st.pending, st.pendingSince = true, now
	}
	if now.Sub(st.pendingSince) >= r.forDur {
		e.fire(r, s, st, now, v)
	}
}

// value computes the rule's aggregate over one series. ok is false when
// the window holds no data.
func (r *rule) value(s *Series, now sim.Time) (float64, bool) {
	if r.fn == FuncRate {
		w := r.window
		if w <= 0 {
			w = defaultRateWindow
		}
		return s.Rate(now.Add(-w)), true
	}
	if r.fn == FuncLast && r.window <= 0 {
		if s.Len() == 0 {
			return 0, false
		}
		return s.Last().V, true
	}
	since := sim.Time(0)
	if r.window > 0 {
		since = now.Add(-r.window)
	}
	a := s.Window(since)
	if a.Count == 0 {
		return 0, false
	}
	if r.fn == FuncMean {
		return a.Mean, true
	}
	return a.Last, true
}

func (e *Engine) fire(r *rule, s *Series, st *alertState, now sim.Time, v float64) {
	st.pending, st.firing = false, true
	st.firingIdx = len(e.firings)
	f := Firing{Rule: r.name, Series: s.Key(), At: now, Value: v, ResolvedAt: -1}
	e.firings = append(e.firings, f)
	if tr := e.c.trace; tr != nil {
		tr.Instant("alerts", "alert", "fire: "+r.name+" "+f.Series)
	}
	for _, fn := range e.onFire {
		fn(f)
	}
}

// clear resets a (rule, series) state, resolving its firing if active.
func (e *Engine) clear(r *rule, s *Series, now sim.Time) {
	st := r.states[s]
	if st == nil {
		return
	}
	if st.firing {
		e.firings[st.firingIdx].ResolvedAt = now
		f := e.firings[st.firingIdx]
		if tr := e.c.trace; tr != nil {
			tr.Instant("alerts", "alert", "resolve: "+f.Rule+" "+f.Series)
		}
		for _, fn := range e.onResolve {
			fn(f)
		}
	}
	delete(r.states, s)
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

type scanner struct {
	s   string
	pos int
}

func (sc *scanner) ws() {
	for sc.pos < len(sc.s) && (sc.s[sc.pos] == ' ' || sc.s[sc.pos] == '\t') {
		sc.pos++
	}
}

func identChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '.' || c == '_' || c == '-'
}

func (sc *scanner) ident() string {
	start := sc.pos
	for sc.pos < len(sc.s) && identChar(sc.s[sc.pos]) {
		sc.pos++
	}
	return sc.s[start:sc.pos]
}

func (sc *scanner) expect(c byte) error {
	sc.ws()
	if sc.pos >= len(sc.s) || sc.s[sc.pos] != c {
		return fmt.Errorf("expected %q at offset %d of %q", string(c), sc.pos, sc.s)
	}
	sc.pos++
	return nil
}

func (sc *scanner) peek() byte {
	sc.ws()
	if sc.pos >= len(sc.s) {
		return 0
	}
	return sc.s[sc.pos]
}

// name parses a series name.
func (sc *scanner) name() (string, error) {
	sc.ws()
	name := sc.ident()
	if name == "" {
		return "", fmt.Errorf("expected series name at offset %d of %q", sc.pos, sc.s)
	}
	return name, nil
}

// duration parses float+unit (us, ms, s, m, h) into sim.Duration.
func (sc *scanner) duration() (sim.Duration, error) {
	sc.ws()
	start := sc.pos
	for sc.pos < len(sc.s) && (sc.s[sc.pos] >= '0' && sc.s[sc.pos] <= '9' || sc.s[sc.pos] == '.') {
		sc.pos++
	}
	num := sc.s[start:sc.pos]
	ustart := sc.pos
	for sc.pos < len(sc.s) && (sc.s[sc.pos] >= 'a' && sc.s[sc.pos] <= 'z') {
		sc.pos++
	}
	unit := sc.s[ustart:sc.pos]
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("bad duration %q in %q", num+unit, sc.s)
	}
	var scale sim.Duration
	switch unit {
	case "us":
		scale = sim.Microsecond
	case "ms":
		scale = sim.Millisecond
	case "s":
		scale = sim.Second
	case "m":
		scale = sim.Minute
	case "h":
		scale = sim.Hour
	default:
		return 0, fmt.Errorf("bad duration unit %q in %q (want us, ms, s, m, h)", unit, sc.s)
	}
	return sim.Duration(v * float64(scale)), nil
}

func (sc *scanner) number() (float64, error) {
	sc.ws()
	start := sc.pos
	for sc.pos < len(sc.s) {
		c := sc.s[sc.pos]
		if c >= '0' && c <= '9' || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E' {
			sc.pos++
			continue
		}
		break
	}
	v, err := strconv.ParseFloat(sc.s[start:sc.pos], 64)
	if err != nil {
		return 0, fmt.Errorf("bad number at offset %d of %q", start, sc.s)
	}
	return v, nil
}

func parseRule(expr string) (*rule, error) {
	sc := &scanner{s: expr}
	r := &rule{expr: strings.TrimSpace(expr), fn: FuncLast}

	name, err := sc.name()
	if err != nil {
		return nil, err
	}
	if sc.peek() == '(' {
		switch RuleFunc(name) {
		case FuncMean, FuncRate, FuncLast:
			r.fn = RuleFunc(name)
		default:
			return nil, fmt.Errorf("unknown function %q in %q", name, expr)
		}
		sc.pos++ // consume '('
		if name, err = sc.name(); err != nil {
			return nil, err
		}
		if sc.peek() == ',' {
			sc.pos++
			if r.window, err = sc.duration(); err != nil {
				return nil, err
			}
		}
		if err := sc.expect(')'); err != nil {
			return nil, err
		}
	}
	r.series = name

	if err := sc.expect('>'); err != nil {
		return nil, err
	}
	if r.threshold, err = sc.number(); err != nil {
		return nil, err
	}

	sc.ws()
	if sc.pos < len(sc.s) {
		if kw := sc.ident(); kw != "for" {
			return nil, fmt.Errorf("expected 'for' at offset %d of %q", sc.pos, expr)
		}
		if r.forDur, err = sc.duration(); err != nil {
			return nil, err
		}
	}
	sc.ws()
	if sc.pos < len(sc.s) {
		return nil, fmt.Errorf("trailing input %q in %q", sc.s[sc.pos:], expr)
	}
	return r, nil
}
