package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"lemur/internal/daemon"
)

// reconcilePoint is one scenario row of the control-plane convergence
// table: a lemurd reconcile loop driven through a scripted operation under
// a fake clock, reporting how many passes and how much simulated time the
// loop needed to converge. Every field is deterministic — the fake clock
// makes convergence latency a pure function of the scenario.
type reconcilePoint struct {
	// Scenario names the scripted operation; BaseChains is the applied
	// chain count before it; Ops the desired-state operations issued.
	Scenario   string
	BaseChains int
	Ops        int

	// Ticks counts reconcile passes from the operation to convergence;
	// ConvergeSimSec is the fake-clock latency over those passes (the
	// level-triggered loop's convergence time at reconcileInterval,
	// including backoff pacing).
	Ticks          int
	ConvergeSimSec float64
	Converged      bool

	// PinnedSubgroups counts subgroups carried by pointer through the
	// scenario's admissions (the zero-disruption measure).
	PinnedSubgroups int

	// Reconciles/Applies/BackoffRetries/RejectedSpecs are the daemon's
	// final per-instance counters.
	Reconciles     uint64
	Applies        uint64
	BackoffRetries uint64
	RejectedSpecs  uint64
}

// reconcileScenarios lists the sweep's scripted scenarios in table order.
func reconcileScenarios() []string {
	return []string{
		"admit-1", "admit-2", "retire-1", "redefine-1",
		"crash-node", "reject-bad-spec", "infeasible-backoff",
	}
}

// reconcileInterval is the reconcile period of the sweep's daemons.
const reconcileInterval = 100 * time.Millisecond

// reconcileSweep runs every reconcile scenario against its own in-process
// daemon on a fake clock, reconciling every reconcileInterval, and reports
// the convergence table. Scenarios are independent cells run concurrently
// bounded by parallel (<=0 = GOMAXPROCS) with results stored by scenario
// index: the output is byte-identical at any worker count.
func reconcileSweep(parallel int) ([]reconcilePoint, error) {
	scenarios := reconcileScenarios()
	points := make([]reconcilePoint, len(scenarios))
	err := forEach(len(scenarios), parallel, func(i int) error {
		pt, err := runReconcileScenario(scenarios[i])
		if err != nil {
			return fmt.Errorf("experiments: reconcile scenario %s: %w", scenarios[i], err)
		}
		points[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// reconcileChain renders one cheap monitor→forward chain for the sweep's
// two-server rack; the subnet is derived from the index so a chain's
// content is a function of (name, tmin) only.
func reconcileChain(idx, tminGbps int) string {
	return fmt.Sprintf(`
chain c%d {
  slo { tmin = %dGbps  tmax = 100Gbps }
  aggregate { src = 10.%d.0.0/16 }
  mon0 = Monitor()
  fwd0 = IPv4Fwd()
  mon0 -> fwd0
}`, idx, tminGbps, 10+idx)
}

// reconcileSpec marshals a desired-state document over the given chain
// bodies on the sweep's standard rack (2 servers, 4-core headroom).
func reconcileSpec(chains ...string) []byte {
	raw, err := json.Marshal(&daemon.Spec{
		Chains:    strings.Join(chains, "\n"),
		Hardware:  daemon.HardwareSpec{Servers: 2},
		Placement: daemon.PlacementSpec{HeadroomCores: 4},
	})
	if err != nil {
		panic(err) // static specs; cannot fail
	}
	return raw
}

// runReconcileScenario drives one scripted scenario to convergence.
func runReconcileScenario(name string) (reconcilePoint, error) {
	clk := daemon.NewFakeClock(time.Unix(0, 0))
	d, err := daemon.New(daemon.Config{Interval: reconcileInterval, Clock: clk})
	if err != nil {
		return reconcilePoint{Scenario: name}, err
	}

	base := []string{reconcileChain(0, 2), reconcileChain(1, 2)}
	if name == "retire-1" {
		base = append(base, reconcileChain(2, 2))
	}
	if _, err := d.SetSpec(reconcileSpec(base...), "bench:base"); err != nil {
		return reconcilePoint{Scenario: name}, err
	}
	if rr := d.Tick(); !rr.Converged {
		return reconcilePoint{Scenario: name}, fmt.Errorf("base apply did not converge: %s", rr.Err)
	}
	pt := reconcilePoint{Scenario: name, BaseChains: len(base), Ops: 1}

	// The scripted operation. infeasible-backoff issues a second, feasible
	// spec once three backoff retries have been observed (below).
	var opErr error
	switch name {
	case "admit-1":
		_, opErr = d.SetSpec(reconcileSpec(reconcileChain(0, 2), reconcileChain(1, 2), reconcileChain(2, 2)), "bench:op")
	case "admit-2":
		_, opErr = d.SetSpec(reconcileSpec(reconcileChain(0, 2), reconcileChain(1, 2), reconcileChain(2, 2), reconcileChain(3, 2)), "bench:op")
	case "retire-1":
		_, opErr = d.SetSpec(reconcileSpec(reconcileChain(0, 2), reconcileChain(1, 2)), "bench:op")
	case "redefine-1":
		_, opErr = d.SetSpec(reconcileSpec(reconcileChain(0, 2), reconcileChain(1, 3)), "bench:op")
	case "crash-node":
		opErr = d.InjectFailures([]string{"nf-server-1"})
	case "reject-bad-spec":
		if _, err := d.SetSpec([]byte(`{"chains": "chain broken {"}`), "bench:op"); err == nil {
			return pt, fmt.Errorf("bad spec was accepted")
		}
	case "infeasible-backoff":
		huge := strings.Replace(reconcileChain(2, 2), "tmin = 2Gbps  tmax = 100Gbps", "tmin = 900Gbps  tmax = 990Gbps", 1)
		_, opErr = d.SetSpec(reconcileSpec(reconcileChain(0, 2), reconcileChain(1, 2), huge), "bench:op")
	default:
		return pt, fmt.Errorf("unknown scenario")
	}
	if opErr != nil {
		return pt, opErr
	}

	opStart := clk.Now()
	recovered := false
	var last *daemon.ReconcileResult
	for pt.Ticks = 1; pt.Ticks <= 32; pt.Ticks++ {
		// Advance to the loop's next attempt: one interval, or the backoff
		// deadline when it is later (the run loop keeps ticking during
		// backoff; the gate just skips the apply).
		next := clk.Now().Add(reconcileInterval)
		if last != nil && last.BackoffUntil.After(next) {
			next = last.BackoffUntil.Add(time.Millisecond)
		}
		clk.Advance(next.Sub(clk.Now()))
		last = d.Tick()
		pt.PinnedSubgroups += last.PinnedSubgroups
		if name == "infeasible-backoff" && !recovered && d.CountersSnapshot().BackoffRetries >= 3 {
			if _, err := d.SetSpec(reconcileSpec(reconcileChain(0, 2), reconcileChain(1, 2), reconcileChain(2, 2)), "bench:recover"); err != nil {
				return pt, err
			}
			pt.Ops++
			recovered = true
			continue
		}
		if last.Converged {
			break
		}
	}
	pt.Converged = last.Converged
	pt.ConvergeSimSec = clk.Now().Sub(opStart).Seconds()
	c := d.CountersSnapshot()
	pt.Reconciles, pt.Applies, pt.BackoffRetries, pt.RejectedSpecs =
		c.Reconciles, c.Applies, c.BackoffRetries, c.RejectedSpecs
	return pt, nil
}
