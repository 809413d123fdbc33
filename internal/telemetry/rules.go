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
//	rule     := expr cmp number [ "for" duration ]
//	expr     := func "(" selector [ "," duration ] ")" | selector
//	func     := "mean" | "min" | "max" | "p99" | "rate" | "last"
//	selector := name [ "{" key "=" value { "," key "=" value } "}" ]
//	cmp      := ">" | ">=" | "<" | "<="
//	duration := float unit, unit in us|ms|s|m|h
//
// A bare selector means last(selector). The function's duration is the
// sliding window (default: the whole retained history; rate defaults to
// 10 s). A selector without labels matches every series of that name —
// the rule tracks an independent state machine per matching series, so
// `last(lease.age) > 4 for 4s` watches every session's lease at once.
//
// Examples:
//
//	mean(session.slowdown, 30s) > 1.10 for 30s
//	last(lease.age) > 4
//	rate(vfs.retries, 10s) > 5
//
// Evaluation runs after every scrape: rules in registration order,
// matching series in key order — deterministic, so firings are
// byte-identical at any experiment worker count.

// RuleFunc identifies the aggregation a rule applies to its window.
type RuleFunc string

// Rule aggregation functions.
const (
	FuncMean RuleFunc = "mean"
	FuncMin  RuleFunc = "min"
	FuncMax  RuleFunc = "max"
	FuncP99  RuleFunc = "p99"
	FuncRate RuleFunc = "rate"
	FuncLast RuleFunc = "last"
)

// defaultRateWindow is the rate() window when the rule names none.
const defaultRateWindow = 10 * sim.Second

// rule is one parsed alert rule.
type rule struct {
	name      string
	expr      string
	fn        RuleFunc
	series    string
	sub       []Label
	window    sim.Duration // 0 = whole retained history
	cmp       string
	threshold float64
	forDur    sim.Duration
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

// alertKey identifies one (rule, series) state machine.
type alertKey struct {
	rule   string
	series string
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
	states    map[alertKey]*alertState
	firings   []Firing
	onFire    []func(Firing)
	onResolve []func(Firing)
	matched   []*Series // reused per-rule selection
}

func newEngine(c *Collector) *Engine {
	return &Engine{c: c, states: make(map[alertKey]*alertState)}
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
	e.rules = append(e.rules, r)
	return nil
}

func (e *Engine) rulesInfo() []RuleInfo {
	out := make([]RuleInfo, len(e.rules))
	for i, r := range e.rules {
		out[i] = RuleInfo{Name: r.name, Expr: r.expr}
	}
	return out
}

// eval runs every rule against the current store contents.
func (e *Engine) eval(now sim.Time) {
	for _, r := range e.rules {
		// Select into a reused buffer: hooks run mid-loop and may
		// create series, which must not shift the slice being walked.
		e.matched = e.c.db.appendSelect(e.matched[:0], r.series, r.sub)
		for _, s := range e.matched {
			v, ok := r.value(s, now)
			key := alertKey{rule: r.name, series: s.Key()}
			if !ok || !compare(v, r.cmp, r.threshold) {
				e.clear(key, now)
				continue
			}
			st := e.states[key]
			if st == nil {
				st = &alertState{}
				e.states[key] = st
			}
			if st.firing {
				continue
			}
			if !st.pending {
				st.pending, st.pendingSince = true, now
			}
			if now.Sub(st.pendingSince) >= r.forDur {
				e.fire(r, key, st, now, v)
			}
		}
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
	since := sim.Time(0)
	if r.window > 0 {
		since = now.Add(-r.window)
	}
	if r.fn == FuncLast && r.window <= 0 {
		if s.Len() == 0 {
			return 0, false
		}
		return s.Last().V, true
	}
	a := s.window(since, r.fn == FuncP99)
	if a.Count == 0 {
		return 0, false
	}
	switch r.fn {
	case FuncMean:
		return a.Mean, true
	case FuncMin:
		return a.Min, true
	case FuncMax:
		return a.Max, true
	case FuncP99:
		return a.P99, true
	case FuncLast:
		return a.Last, true
	}
	return 0, false
}

func compare(v float64, cmp string, threshold float64) bool {
	switch cmp {
	case ">":
		return v > threshold
	case ">=":
		return v >= threshold
	case "<":
		return v < threshold
	case "<=":
		return v <= threshold
	}
	return false
}

func (e *Engine) fire(r *rule, key alertKey, st *alertState, now sim.Time, v float64) {
	st.pending, st.firing = false, true
	st.firingIdx = len(e.firings)
	f := Firing{Rule: r.name, Series: key.series, At: now, Value: v, ResolvedAt: -1}
	e.firings = append(e.firings, f)
	if tr := e.c.cfg.Trace; tr != nil {
		tr.Instant("alerts", "alert", "fire: "+r.name+" "+key.series)
		tr.Metrics().Counter("telemetry.alerts.fired").Inc()
	}
	for _, fn := range e.onFire {
		fn(f)
	}
}

// clear resets a (rule, series) state, resolving its firing if active.
func (e *Engine) clear(key alertKey, now sim.Time) {
	st := e.states[key]
	if st == nil {
		return
	}
	if st.firing {
		e.firings[st.firingIdx].ResolvedAt = now
		f := e.firings[st.firingIdx]
		if tr := e.c.cfg.Trace; tr != nil {
			tr.Instant("alerts", "alert", "resolve: "+f.Rule+" "+f.Series)
			tr.Metrics().Counter("telemetry.alerts.resolved").Inc()
		}
		for _, fn := range e.onResolve {
			fn(f)
		}
	}
	delete(e.states, key)
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

// selector parses name[{k=v,...}], returning sorted labels.
func (sc *scanner) selector() (string, []Label, error) {
	sc.ws()
	name := sc.ident()
	if name == "" {
		return "", nil, fmt.Errorf("expected series name at offset %d of %q", sc.pos, sc.s)
	}
	if sc.peek() != '{' {
		return name, nil, nil
	}
	sc.pos++
	var labels []Label
	for {
		sc.ws()
		key := sc.ident()
		if key == "" {
			return "", nil, fmt.Errorf("expected label key at offset %d of %q", sc.pos, sc.s)
		}
		if err := sc.expect('='); err != nil {
			return "", nil, err
		}
		sc.ws()
		val := sc.ident()
		labels = append(labels, Label{Key: key, Value: val})
		switch sc.peek() {
		case ',':
			sc.pos++
		case '}':
			sc.pos++
			sortLabels(labels)
			return name, labels, nil
		default:
			return "", nil, fmt.Errorf("expected ',' or '}' at offset %d of %q", sc.pos, sc.s)
		}
	}
}

func sortLabels(labels []Label) {
	for i := 1; i < len(labels); i++ {
		for j := i; j > 0 && labels[j].Key < labels[j-1].Key; j-- {
			labels[j], labels[j-1] = labels[j-1], labels[j]
		}
	}
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

func (sc *scanner) cmp() (string, error) {
	sc.ws()
	if sc.pos < len(sc.s) && (sc.s[sc.pos] == '>' || sc.s[sc.pos] == '<') {
		op := sc.s[sc.pos : sc.pos+1]
		sc.pos++
		if sc.pos < len(sc.s) && sc.s[sc.pos] == '=' {
			op += "="
			sc.pos++
		}
		return op, nil
	}
	return "", fmt.Errorf("expected comparison at offset %d of %q", sc.pos, sc.s)
}

func parseRule(expr string) (*rule, error) {
	sc := &scanner{s: expr}
	r := &rule{expr: strings.TrimSpace(expr), fn: FuncLast}

	sc.ws()
	start := sc.pos
	head := sc.ident()
	if head == "" {
		return nil, fmt.Errorf("expected expression in %q", expr)
	}
	if sc.peek() == '(' {
		switch RuleFunc(head) {
		case FuncMean, FuncMin, FuncMax, FuncP99, FuncRate, FuncLast:
			r.fn = RuleFunc(head)
		default:
			return nil, fmt.Errorf("unknown function %q in %q", head, expr)
		}
		sc.pos++ // consume '('
		name, labels, err := sc.selector()
		if err != nil {
			return nil, err
		}
		r.series, r.sub = name, labels
		if sc.peek() == ',' {
			sc.pos++
			w, err := sc.duration()
			if err != nil {
				return nil, err
			}
			r.window = w
		}
		if err := sc.expect(')'); err != nil {
			return nil, err
		}
	} else {
		// Bare selector: rewind and parse it whole (head may be the full
		// name already, but a label block could follow).
		sc.pos = start
		name, labels, err := sc.selector()
		if err != nil {
			return nil, err
		}
		r.series, r.sub = name, labels
	}

	op, err := sc.cmp()
	if err != nil {
		return nil, err
	}
	r.cmp = op
	threshold, err := sc.number()
	if err != nil {
		return nil, err
	}
	r.threshold = threshold

	sc.ws()
	if sc.pos < len(sc.s) {
		kw := sc.ident()
		if kw != "for" {
			return nil, fmt.Errorf("expected 'for' at offset %d of %q", sc.pos, expr)
		}
		d, err := sc.duration()
		if err != nil {
			return nil, err
		}
		r.forDur = d
	}
	sc.ws()
	if sc.pos < len(sc.s) {
		return nil, fmt.Errorf("trailing input %q in %q", sc.s[sc.pos:], expr)
	}
	return r, nil
}
