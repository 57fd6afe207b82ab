// Package chaos defines the deterministic reconfiguration schedules of the
// discrete-time simulator. A Plan is a seeded schedule of events at
// simulated times: node crashes, link degradations and NF overloads (the
// fault kinds), or chain admissions and retirements (the churn kinds). The
// runtime consumes it via runtime.SimConfig.Faults. Faults drop in-flight
// packets and throttle budgets; a crash, an admission and a retirement each
// land, after a configurable detection + reconfiguration delay, as an
// incremental re-placement (placer.Reconfigure) plus a steering-rule rewire
// (metacompiler.Deployment.Apply).
//
// The package is dependency-free by design: the placer, metacompiler,
// runtime, and CLIs all import it without cycles.
package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Kind classifies a scheduled event.
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
	// Admit adds a chain (named in the run's catalog) to the running
	// deployment via the incremental path (placer.Reconfigure +
	// Deployment.Apply).
	Admit
	// Retire removes a running chain by name, reclaiming its resources
	// through the same path. Its offered load stops at AtSec.
	Retire
)

var kindNames = [...]string{"crash", "degrade", "overload", "admit", "retire"}

// kindAliases maps every spelling Parse accepts to its kind.
var kindAliases = map[string]Kind{
	"crash": Crash, "kill": Crash, "fail": Crash,
	"degrade": LinkDegrade, "link": LinkDegrade, "slow": LinkDegrade,
	"overload": NFOverload, "hot": NFOverload,
	"admit": Admit, "add": Admit, "arrive": Admit,
	"retire": Retire, "remove": Retire, "depart": Retire,
}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("chaos.Kind(%d)", int(k))
}

// Churn reports whether k changes the chain set (Admit, Retire) rather than
// the devices (Crash, LinkDegrade, NFOverload).
func (k Kind) Churn() bool { return k == Admit || k == Retire }

// defaultFactor is the Factor a kind takes when the schedule names none; 0
// for the kinds that take no factor at all.
func (k Kind) defaultFactor() float64 {
	switch k {
	case LinkDegrade:
		return 0.5
	case NFOverload:
		return 4.0
	}
	return 0
}

// Default control-plane timing. Detection covers the testbed noticing a
// dead node or a tenant request (BFD/heartbeat or API timescale); reconfig
// covers Reconfigure + Apply (rule re-install timescale). Both are
// simulated-time delays.
const (
	DefaultDetectionDelaySec = 0.010
	DefaultReconfigDelaySec  = 0.020
)

// Event is one scheduled fault, admission or retirement.
type Event struct {
	Kind Kind
	// Target names a device for the fault kinds — a server
	// ("nf-server-1") or SmartNIC ("agilio-cx-40") — and a chain (its spec
	// name, e.g. "chain6") for Admit and Retire.
	Target string
	AtSec  float64 // simulated time the event fires
	// Factor parameterizes LinkDegrade (capacity multiplier, <1 slows)
	// and NFOverload (cost multiplier, >1 slows). Ignored for the others.
	Factor float64
}

// String renders the event in the grammar Parse accepts.
func (e Event) String() string {
	s := fmt.Sprintf("%s:%s@%gs", e.Kind, e.Target, e.AtSec)
	if e.Kind.defaultFactor() != 0 && e.Factor != 0 {
		s += fmt.Sprintf("x%g", e.Factor)
	}
	return s
}

// Plan is a deterministic event schedule plus the control-plane timing
// model every event shares.
type Plan struct {
	// Events fire at their AtSec in simulated time. Normalize sorts them.
	Events []Event
	// DetectionDelaySec elapses between an event and the control plane
	// noticing it; a crashed node drops traffic silently during this window.
	DetectionDelaySec float64
	// ReconfigDelaySec elapses between detection and the re-placed
	// steering rules taking effect (Reconfigure + Apply install time).
	ReconfigDelaySec float64
}

// Empty reports whether the plan schedules no event at all.
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

// Validate checks event well-formedness (kinds, targets, finite times and
// factors in range).
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, e := range p.Events {
		if e.Target == "" {
			return fmt.Errorf("chaos: event %d: empty target", i)
		}
		if math.IsNaN(e.AtSec) || math.IsInf(e.AtSec, 0) {
			return fmt.Errorf("chaos: event %d (%s): time %g is not finite", i, e.Target, e.AtSec)
		}
		if e.AtSec < 0 {
			return fmt.Errorf("chaos: event %d (%s): negative time %g", i, e.Target, e.AtSec)
		}
		if math.IsNaN(e.Factor) || math.IsInf(e.Factor, 0) {
			return fmt.Errorf("chaos: event %d (%s): factor %g is not finite", i, e.Target, e.Factor)
		}
		switch e.Kind {
		case Crash, Admit, Retire:
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
//	admit:chain6@300ms;retire:chain2@0.6s
//
// Grammar per event: kind ":" target "@" time ["x" factor]. Kinds are crash
// (aliases kill, fail), degrade (link, slow), overload (hot), admit (add,
// arrive) and retire (remove, depart). Events are separated by ";" or ",".
// Times accept "0.3s", "300ms", "50us", or bare seconds. Only degrade and
// overload take a factor, defaulting to 0.5 and 4. The returned plan is
// normalized (events sorted by time) and validated.
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
	ev.Kind, ok = kindAliases[strings.ToLower(strings.TrimSpace(kind))]
	if !ok {
		return ev, fmt.Errorf("chaos: %q: unknown kind %q (want crash, degrade, overload, admit, or retire)", tok, kind)
	}
	target, at, ok := strings.Cut(rest, "@")
	if !ok {
		return ev, fmt.Errorf("chaos: %q: missing @time", tok)
	}
	ev.Target = strings.TrimSpace(target)
	if def := ev.Kind.defaultFactor(); def != 0 {
		if i := strings.LastIndexByte(at, 'x'); i >= 0 {
			f, err := strconv.ParseFloat(strings.TrimSpace(at[i+1:]), 64)
			if err != nil {
				return ev, fmt.Errorf("chaos: %q: bad factor: %v", tok, err)
			}
			ev.Factor = f
			at = at[:i]
		}
		if ev.Factor == 0 {
			ev.Factor = def
		}
	}
	sec, err := parseTime(strings.TrimSpace(at))
	if err != nil {
		return ev, fmt.Errorf("chaos: %q: %v", tok, err)
	}
	ev.AtSec = sec
	return ev, nil
}

// parseTime parses a schedule timestamp — "0.3s", "300ms", "50us", or bare
// seconds — into seconds.
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
