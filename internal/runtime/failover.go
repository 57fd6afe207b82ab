package runtime

import (
	"fmt"

	"lemur/internal/chaos"
	"lemur/internal/nfgraph"
	"lemur/internal/placer"
)

// FailoverReport extends a SimResult with the fault-injection outcome:
// which scheduled events fired, how long each chain was down, how many
// packets the faults cost, and whether each chain's post-failover rate
// still clears its SLO. All slices are per-chain.
type FailoverReport struct {
	// Events that actually fired within the simulated duration, rendered
	// in the chaos grammar.
	Events []string
	// DetectionDelaySec and ReconfigDelaySec are the failover timing model
	// used (plan overrides applied).
	DetectionDelaySec float64
	ReconfigDelaySec  float64
	// ReplaceError is set when the incremental re-placement (or rewire)
	// failed; affected chains then stay down to the end of the run.
	ReplaceError string
	// RewireSummary is the last successful rewire's incremental accounting.
	RewireSummary string
	// DowntimeSec is how long each chain had no working placement: from
	// the crash that severed it until the re-placed rules took effect
	// (or the end of the run).
	DowntimeSec []float64
	// FaultDrops counts packets lost to the faults themselves: in-flight
	// packets on crashed devices, packets steered into a dead device
	// before reconfiguration, and parked packets orphaned by the rewire.
	FaultDrops []int
	// Post-failover SLO compliance, measured over the window from the last
	// fault effect (rewire completion or degrade/overload onset) to the end
	// of the run.
	PostWindowSec    float64
	PostAchievedBps  []float64
	PostSLOCompliant []bool
}

// validatePlan checks a plan against the deployment's topology and the churn
// catalog. Crash targets must be servers or SmartNICs (the ToR is the
// coordinator — its death is not survivable and is rejected), degrade and
// overload targets must be servers (the only devices with budgets), and admit
// targets must resolve in the catalog up front (a typo should fail the run,
// not silently no-op); retire targets are resolved at fire time, since the
// chain may itself be admitted mid-run. One run is a failover run or a churn
// run, never both.
func validatePlan(tb *Testbed, plan *chaos.Plan, catalog map[string]*nfgraph.Graph) error {
	if err := plan.Validate(); err != nil {
		return err
	}
	topo := tb.D.Input.Topo
	servers := placer.NodeSet{}
	for _, s := range topo.Servers {
		servers[s.Name] = true
	}
	nics := placer.NodeSet{}
	for _, n := range topo.SmartNICs {
		nics[n.Name] = true
	}
	for _, ev := range plan.Events {
		if ev.Kind.Churn() != plan.Events[0].Kind.Churn() {
			return fmt.Errorf("runtime: fault and churn schedules cannot be combined in one run")
		}
		switch ev.Kind {
		case chaos.Crash:
			if ev.Target == topo.Switch.Name {
				return fmt.Errorf("runtime: crash target %q is the ToR switch; all traffic enters there", ev.Target)
			}
			if !servers[ev.Target] && !nics[ev.Target] {
				return fmt.Errorf("runtime: crash target %q is not a server or SmartNIC", ev.Target)
			}
		case chaos.LinkDegrade, chaos.NFOverload:
			if !servers[ev.Target] {
				return fmt.Errorf("runtime: %s target %q is not a server", ev.Kind, ev.Target)
			}
		case chaos.Admit:
			if _, ok := catalog[ev.Target]; !ok {
				return fmt.Errorf("runtime: admit target %q is not in the churn catalog", ev.Target)
			}
		}
	}
	return nil
}

// mult returns the registered multiplier for key, defaulting to 1.
func mult(m map[string]float64, key string) float64 {
	if v, ok := m[key]; ok {
		return v
	}
	return 1
}
