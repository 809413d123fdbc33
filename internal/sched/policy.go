package sched

import (
	"fmt"
	"strconv"
	"strings"

	"vmgrid/internal/hostos"
	"vmgrid/internal/sim"
)

// The paper proposes "a specialized language for specifying the
// [resource owner's] constraints, and a toolchain for enforcing
// constraints specified in the language when scheduling virtual
// machines on the host operating system". Policy is that language's
// AST; Compile is the toolchain.
//
// Grammar (one directive per line, '#' comments):
//
//	policy <name>
//	reserve <percent>%          # capacity held back for the owner
//	limit <proc> <percent>%     # hard cap, enforced by duty-cycling
//	weight <proc> <number>      # proportional share under contention
//
// Example:
//
//	policy desktop-owner
//	reserve 25%
//	limit vmm:guest-a 50%
//	weight vmm:guest-b 2

// RuleKind distinguishes policy directives.
type RuleKind int

// Rule kinds.
const (
	RuleLimit RuleKind = iota + 1
	RuleWeight
)

// Rule is one per-process directive.
type Rule struct {
	Kind   RuleKind
	Target string
	// Value is a fraction for RuleLimit, a weight for RuleWeight.
	Value float64
}

// Policy is a parsed constraint specification.
type Policy struct {
	Name    string
	Reserve float64 // fraction of the machine held for the owner
	Rules   []Rule
}

// ParsePolicy parses the constraint language.
func ParsePolicy(src string) (Policy, error) {
	var p Policy
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "policy":
			if len(fields) != 2 {
				return p, fmt.Errorf("sched: line %d: policy <name>", lineNo+1)
			}
			p.Name = fields[1]
		case "reserve":
			if len(fields) != 2 {
				return p, fmt.Errorf("sched: line %d: reserve <percent>%%", lineNo+1)
			}
			v, err := parsePercent(fields[1])
			if err != nil {
				return p, fmt.Errorf("sched: line %d: %w", lineNo+1, err)
			}
			p.Reserve = v
		case "limit":
			if len(fields) != 3 {
				return p, fmt.Errorf("sched: line %d: limit <proc> <percent>%%", lineNo+1)
			}
			v, err := parsePercent(fields[2])
			if err != nil {
				return p, fmt.Errorf("sched: line %d: %w", lineNo+1, err)
			}
			p.Rules = append(p.Rules, Rule{Kind: RuleLimit, Target: fields[1], Value: v})
		case "weight":
			if len(fields) != 3 {
				return p, fmt.Errorf("sched: line %d: weight <proc> <number>", lineNo+1)
			}
			v, err := strconv.ParseFloat(fields[2], 64)
			if err != nil || v <= 0 {
				return p, fmt.Errorf("sched: line %d: bad weight %q", lineNo+1, fields[2])
			}
			p.Rules = append(p.Rules, Rule{Kind: RuleWeight, Target: fields[1], Value: v})
		default:
			return p, fmt.Errorf("sched: line %d: unknown directive %q", lineNo+1, fields[0])
		}
	}
	if err := p.Validate(); err != nil {
		return p, err
	}
	return p, nil
}

func parsePercent(s string) (float64, error) {
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad percentage %q", s)
	}
	if v < 0 || v > 100 {
		return 0, fmt.Errorf("percentage %v out of [0,100]", v)
	}
	return v / 100, nil
}

// Validate checks cross-directive consistency.
func (p Policy) Validate() error {
	var limits float64
	seen := map[string]RuleKind{}
	for _, r := range p.Rules {
		if prev, dup := seen[r.Target]; dup && prev == r.Kind {
			return fmt.Errorf("sched: duplicate %v rule for %q", r.Kind, r.Target)
		}
		seen[r.Target] = r.Kind
		if r.Kind == RuleLimit {
			limits += r.Value
		}
	}
	if p.Reserve+0 > 1 {
		return fmt.Errorf("sched: reserve %v exceeds the machine", p.Reserve)
	}
	return nil
}

// Enforcement is a compiled, applied policy: the set of live mechanisms
// (weights set, modulators running, owner reservation process) enforcing
// it on one host.
type Enforcement struct {
	policy      Policy
	modulators  map[string]*Modulator
	reserveProc *hostos.Process
}

// Policy returns the source policy.
func (e *Enforcement) Policy() Policy { return e.policy }

// Modulator returns the duty-cycler enforcing a limit rule, if any.
func (e *Enforcement) Modulator(target string) *Modulator { return e.modulators[target] }

// Release tears down the enforcement (stops modulators, drops the
// reservation).
func (e *Enforcement) Release() {
	for _, m := range e.modulators {
		m.Stop()
	}
	if e.reserveProc != nil {
		e.reserveProc.Exit()
		e.reserveProc = nil
	}
}

// Compile applies a policy to a host: weight rules set scheduler
// weights, limit rules attach duty-cycle modulators, and a reserve
// directive spawns an owner-priority process holding back capacity.
// Targets name host processes (hostos.Process.Name).
func Compile(k *sim.Kernel, h *hostos.Host, p Policy) (*Enforcement, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	byName := make(map[string]*hostos.Process)
	for _, proc := range h.Procs() {
		byName[proc.Name()] = proc
	}
	e := &Enforcement{policy: p, modulators: make(map[string]*Modulator)}
	for _, r := range p.Rules {
		proc, ok := byName[r.Target]
		if !ok {
			e.Release()
			return nil, fmt.Errorf("sched: policy %q: no process %q on %s", p.Name, r.Target, h.Name())
		}
		switch r.Kind {
		case RuleWeight:
			proc.SetWeight(r.Value)
		case RuleLimit:
			m, err := NewModulator(k, proc, r.Value)
			if err != nil {
				e.Release()
				return nil, err
			}
			m.Start()
			e.modulators[r.Target] = m
		}
	}
	if p.Reserve > 0 {
		// The owner's interactive work is modeled as a high-weight
		// process demanding the reserved fraction.
		e.reserveProc = h.Spawn("owner-reserve")
		e.reserveProc.SetWeight(1000)
		e.reserveProc.SetDemand(p.Reserve)
	}
	return e, nil
}
