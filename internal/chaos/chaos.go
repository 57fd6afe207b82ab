// Package chaos defines deterministic fault-injection plans for the
// discrete-time simulator. A Plan is a seeded schedule of node crashes,
// link degradations, and NF overloads at simulated times; the runtime
// consumes it via runtime.SimConfig.Faults and reacts by dropping
// in-flight packets, throttling budgets, and — for crashes — triggering
// an incremental re-placement (placer.Reconfigure with Delta.Failed) plus
// a steering-rule rewire (metacompiler.Deployment.Apply) after a
// configurable detection + reconfiguration delay.
//
// The package is dependency-free by design: the placer, metacompiler,
// runtime, and CLIs all import it without cycles.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Kind classifies a fault event.
type Kind int

const (
	// Crash removes a server (and any SmartNIC it hosts) from service.
	// In-flight packets on the node are dropped; after the plan's
	// detection + reconfiguration delay, traffic re-steers onto an
	// incrementally re-computed placement.
	Crash Kind = iota
	// LinkDegrade scales a device's service capacity by Factor
	// (e.g. 0.5 halves a server's per-step cycle budget, or makes a
	// SmartNIC drop a deterministic fraction of its traffic).
	LinkDegrade
	// NFOverload scales the per-packet cost of every NF on the target
	// server by Factor (e.g. 4.0 models a pathological input mix).
	NFOverload
)

func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case LinkDegrade:
		return "degrade"
	case NFOverload:
		return "overload"
	}
	return fmt.Sprintf("chaos.Kind(%d)", int(k))
}

// Default fault-model parameters. Detection covers the testbed noticing a
// dead node (BFD/heartbeat timescale); reconfig covers Replace + Rewire
// (rule re-install timescale). Both are simulated-time delays.
const (
	DefaultDetectionDelaySec = 0.010
	DefaultReconfigDelaySec  = 0.020

	defaultDegradeFactor  = 0.5
	defaultOverloadFactor = 4.0
)

// Event is one scheduled fault.
type Event struct {
	Kind   Kind
	Target string  // device name: a server ("nf-server-1") or SmartNIC ("agilio-cx-40")
	AtSec  float64 // simulated time the fault fires
	// Factor parameterizes LinkDegrade (capacity multiplier, <1 slows)
	// and NFOverload (cost multiplier, >1 slows). Ignored for Crash.
	Factor float64
}

// String renders the event in the grammar Parse accepts.
func (e Event) String() string {
	s := fmt.Sprintf("%s:%s@%gs", e.Kind, e.Target, e.AtSec)
	if e.Kind != Crash && e.Factor != 0 {
		s += fmt.Sprintf("x%g", e.Factor)
	}
	return s
}

// Plan is a deterministic fault schedule plus the failover timing model.
type Plan struct {
	// Events fire at their AtSec in simulated time. Normalize sorts them.
	Events []Event
	// DetectionDelaySec elapses between a crash and the testbed noticing;
	// the node drops traffic silently during this window.
	DetectionDelaySec float64
	// ReconfigDelaySec elapses between detection and the re-placed
	// steering rules taking effect (Replace + Rewire install time).
	ReconfigDelaySec float64
}

// Empty reports whether the plan injects no faults at all.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// Normalize sorts events by fire time (stable, so equal-time events keep
// their authored order) and returns the plan for chaining.
func (p *Plan) Normalize() *Plan {
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].AtSec < p.Events[j].AtSec })
	return p
}

// Delays returns the detection and reconfiguration delays with defaults
// applied (negative values mean "explicitly zero" is allowed: only
// unset/zero fields default).
func (p *Plan) Delays() (detection, reconfig float64) {
	detection, reconfig = DefaultDetectionDelaySec, DefaultReconfigDelaySec
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

// Validate checks event well-formedness (times, factors, targets).
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, e := range p.Events {
		if e.Target == "" {
			return fmt.Errorf("chaos: event %d: empty target", i)
		}
		if e.AtSec < 0 {
			return fmt.Errorf("chaos: event %d (%s): negative time %g", i, e.Target, e.AtSec)
		}
		switch e.Kind {
		case Crash:
		case LinkDegrade:
			if e.Factor < 0 || e.Factor > 1 {
				return fmt.Errorf("chaos: event %d (%s): degrade factor %g outside [0,1]", i, e.Target, e.Factor)
			}
		case NFOverload:
			if e.Factor < 1 {
				return fmt.Errorf("chaos: event %d (%s): overload factor %g < 1", i, e.Target, e.Factor)
			}
		default:
			return fmt.Errorf("chaos: event %d (%s): unknown kind %d", i, e.Target, int(e.Kind))
		}
	}
	return nil
}

// Parse builds a Plan from a compact schedule string:
//
//	crash:nf-server-1@0.3s
//	crash:nf-server-1@300ms;degrade:agilio-cx-40@0.1sx0.5
//	overload:nf-server-2@50msx8,crash:nf-server-1@0.2
//
// Grammar per event: kind ":" target "@" time ["x" factor]. Events are
// separated by ";" or ",". Times accept "0.3s", "300ms", or bare seconds.
// Factors default to 0.5 (degrade) and 4 (overload); crash takes none.
// The returned plan is normalized (events sorted by time) and validated.
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
		return ev, fmt.Errorf("chaos: %q: want kind:target@time", tok)
	}
	switch strings.ToLower(strings.TrimSpace(kind)) {
	case "crash", "kill", "fail":
		ev.Kind = Crash
	case "degrade", "link", "slow":
		ev.Kind = LinkDegrade
	case "overload", "hot":
		ev.Kind = NFOverload
	default:
		return ev, fmt.Errorf("chaos: %q: unknown kind %q (want crash, degrade, or overload)", tok, kind)
	}
	target, at, ok := strings.Cut(rest, "@")
	if !ok {
		return ev, fmt.Errorf("chaos: %q: missing @time", tok)
	}
	ev.Target = strings.TrimSpace(target)
	if i := strings.LastIndexByte(at, 'x'); i >= 0 && ev.Kind != Crash {
		f, err := strconv.ParseFloat(strings.TrimSpace(at[i+1:]), 64)
		if err != nil {
			return ev, fmt.Errorf("chaos: %q: bad factor: %v", tok, err)
		}
		ev.Factor = f
		at = at[:i]
	}
	if ev.Factor == 0 {
		switch ev.Kind {
		case LinkDegrade:
			ev.Factor = defaultDegradeFactor
		case NFOverload:
			ev.Factor = defaultOverloadFactor
		}
	}
	sec, err := parseTime(strings.TrimSpace(at))
	if err != nil {
		return ev, fmt.Errorf("chaos: %q: %v", tok, err)
	}
	ev.AtSec = sec
	return ev, nil
}

// ParseTime parses a schedule timestamp — "0.3s", "300ms", "50us", or bare
// seconds — into seconds. Shared with the churn schedule grammar, which uses
// the same @time syntax.
func ParseTime(s string) (float64, error) { return parseTime(s) }

func parseTime(s string) (float64, error) {
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "ms"):
		s, mult = s[:len(s)-2], 1e-3
	case strings.HasSuffix(s, "us"):
		s, mult = s[:len(s)-2], 1e-6
	case strings.HasSuffix(s, "s"):
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad time %q", s)
	}
	return v * mult, nil
}

// RandomPlan draws a seeded schedule of n single-target crash events over
// the given candidate devices, uniformly placed in (0, durationSec). The
// same seed always yields the same plan; targets are consumed in the order
// given, so callers should pass a deterministically ordered slice.
func RandomPlan(seed int64, targets []string, n int, durationSec float64) *Plan {
	rng := rand.New(rand.NewSource(seed*2654435761 + 97))
	p := &Plan{}
	if len(targets) == 0 {
		return p
	}
	perm := rng.Perm(len(targets))
	if n > len(targets) {
		n = len(targets)
	}
	for i := 0; i < n; i++ {
		p.Events = append(p.Events, Event{
			Kind:   Crash,
			Target: targets[perm[i]],
			AtSec:  durationSec * (0.1 + 0.8*rng.Float64()),
		})
	}
	return p.Normalize()
}
