// Package churn defines deterministic chain-churn schedules for the
// discrete-time simulator: chains admitted or retired at simulated times.
// A Plan is consumed by runtime.SimConfig.Churn; admissions resolve their
// chain by name against SimConfig.ChurnCatalog, retirements against the
// running deployment. Churn shares the chaos package's detection +
// reconfiguration delay model: an event requested at AtSec takes effect
// after the control plane notices and rewires, exactly like a failover.
//
// Like chaos, the package is dependency-light (only chaos itself, for the
// shared time grammar and delay defaults) so every layer can import it.
package churn

import (
	"fmt"
	"sort"
	"strings"

	"lemur/internal/chaos"
)

// Kind classifies a churn event.
type Kind int

const (
	// Admit adds a chain (named in the catalog) to the running deployment
	// via the incremental path (placer.Reconfigure + Deployment.Apply).
	Admit Kind = iota
	// Retire removes a running chain by name, reclaiming its resources
	// through the same path. Its offered load stops at AtSec.
	Retire
)

func (k Kind) String() string {
	switch k {
	case Admit:
		return "admit"
	case Retire:
		return "retire"
	}
	return fmt.Sprintf("churn.Kind(%d)", int(k))
}

// Event is one scheduled admission or retirement.
type Event struct {
	Kind  Kind
	Chain string  // chain name (spec name, e.g. "chain6")
	AtSec float64 // simulated time the request arrives
}

// String renders the event in the grammar Parse accepts.
func (e Event) String() string {
	return fmt.Sprintf("%s:%s@%gs", e.Kind, e.Chain, e.AtSec)
}

// Plan is a deterministic churn schedule plus the control-plane timing
// model it shares with chaos.
type Plan struct {
	// Events fire at their AtSec in simulated time. Normalize sorts them.
	Events []Event
	// DetectionDelaySec models the control plane noticing the request
	// (tenant API → controller); 0 means chaos.DefaultDetectionDelaySec.
	DetectionDelaySec float64
	// ReconfigDelaySec models solve + rule install (Reconfigure + Apply);
	// 0 means chaos.DefaultReconfigDelaySec.
	ReconfigDelaySec float64
}

// Empty reports whether the plan schedules no churn at all.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// Normalize sorts events by request time (stable, so equal-time events keep
// their authored order) and returns the plan for chaining.
func (p *Plan) Normalize() *Plan {
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].AtSec < p.Events[j].AtSec })
	return p
}

// Delays returns the detection and reconfiguration delays with the chaos
// defaults applied (negative values clamp to zero, so "explicitly
// immediate" is expressible).
func (p *Plan) Delays() (detection, reconfig float64) {
	detection, reconfig = chaos.DefaultDetectionDelaySec, chaos.DefaultReconfigDelaySec
	if p == nil {
		return
	}
	if p.DetectionDelaySec != 0 {
		detection = p.DetectionDelaySec
	}
	if p.ReconfigDelaySec != 0 {
		reconfig = p.ReconfigDelaySec
	}
	if detection < 0 {
		detection = 0
	}
	if reconfig < 0 {
		reconfig = 0
	}
	return
}

// String renders the event schedule in Parse's grammar.
func (p *Plan) String() string {
	if p.Empty() {
		return ""
	}
	parts := make([]string, len(p.Events))
	for i, e := range p.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, ";")
}

// Validate checks event well-formedness (names, times, kinds).
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, e := range p.Events {
		if e.Chain == "" {
			return fmt.Errorf("churn: event %d: empty chain name", i)
		}
		if e.AtSec < 0 {
			return fmt.Errorf("churn: event %d (%s): negative time %g", i, e.Chain, e.AtSec)
		}
		switch e.Kind {
		case Admit, Retire:
		default:
			return fmt.Errorf("churn: event %d (%s): unknown kind %d", i, e.Chain, int(e.Kind))
		}
	}
	return nil
}

// Parse builds a Plan from a compact schedule string:
//
//	admit:chain6@0.3s
//	admit:chain6@300ms;retire:chain2@0.6s
//	add:chain5@0.1,remove:chain1@0.4s
//
// Grammar per event: kind ":" chain "@" time. Kinds are admit (aliases:
// add, arrive) and retire (aliases: remove, depart). Events are separated
// by ";" or ",". Times accept "0.3s", "300ms", "50us", or bare seconds —
// the same grammar as chaos schedules. The returned plan is normalized
// (events sorted by time) and validated.
func Parse(s string) (*Plan, error) {
	p := &Plan{}
	for _, tok := range strings.FieldsFunc(s, func(r rune) bool { return r == ';' || r == ',' }) {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		ev, err := parseEvent(tok)
		if err != nil {
			return nil, err
		}
		p.Events = append(p.Events, ev)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p.Normalize(), nil
}

func parseEvent(tok string) (Event, error) {
	var ev Event
	kind, rest, ok := strings.Cut(tok, ":")
	if !ok {
		return ev, fmt.Errorf("churn: %q: want kind:chain@time", tok)
	}
	switch strings.ToLower(strings.TrimSpace(kind)) {
	case "admit", "add", "arrive":
		ev.Kind = Admit
	case "retire", "remove", "depart":
		ev.Kind = Retire
	default:
		return ev, fmt.Errorf("churn: %q: unknown kind %q (want admit or retire)", tok, kind)
	}
	chain, at, ok := strings.Cut(rest, "@")
	if !ok {
		return ev, fmt.Errorf("churn: %q: missing @time", tok)
	}
	ev.Chain = strings.TrimSpace(chain)
	sec, err := chaos.ParseTime(strings.TrimSpace(at))
	if err != nil {
		return ev, fmt.Errorf("churn: %q: %v", tok, err)
	}
	ev.AtSec = sec
	return ev, nil
}
