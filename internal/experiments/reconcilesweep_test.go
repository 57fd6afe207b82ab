package experiments

import (
	"encoding/json"
	"math"
	"testing"
)

// TestReconcileSweepDeterministic: the convergence table is byte-identical
// at any worker count, and every scenario actually converges.
func TestReconcileSweepDeterministic(t *testing.T) {
	render := func(parallel int) string {
		t.Helper()
		pts, err := reconcileSweep(parallel)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != len(reconcileScenarios()) {
			t.Fatalf("want %d rows, got %d", len(reconcileScenarios()), len(pts))
		}
		for i := range pts {
			if !pts[i].Converged {
				t.Fatalf("scenario %s did not converge: %+v", pts[i].Scenario, pts[i])
			}
		}
		raw, err := json.Marshal(pts)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	serial := render(1)
	if par := render(4); par != serial {
		t.Fatalf("sweep differs across -parallel:\n 1: %s\n 4: %s", serial, par)
	}
}

// TestReconcileSweepSemantics spot-checks per-scenario expectations:
// the rejected spec never disturbs the deployment, backoff pacing shows up
// in the infeasible scenario, and convergence latency is a whole number of
// intervals.
func TestReconcileSweepSemantics(t *testing.T) {
	pts, err := reconcileSweep(0)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]reconcilePoint{}
	for _, p := range pts {
		byName[p.Scenario] = p
	}

	if p := byName["reject-bad-spec"]; p.RejectedSpecs != 1 || p.Ticks != 1 {
		t.Fatalf("reject-bad-spec: want 1 rejection converging in 1 tick, got %+v", p)
	}
	if p := byName["infeasible-backoff"]; p.BackoffRetries < 3 || p.Ops != 2 {
		t.Fatalf("infeasible-backoff: want >=3 retries across 2 ops, got %+v", p)
	}
	if p := byName["crash-node"]; p.RejectedSpecs != 0 || !p.Converged {
		t.Fatalf("crash-node: %+v", p)
	}
	for _, name := range []string{"admit-1", "admit-2", "retire-1", "redefine-1"} {
		p := byName[name]
		if p.Ticks != 1 {
			t.Fatalf("%s: steady-state op should converge in one tick, got %+v", name, p)
		}
		ivl := reconcileInterval.Seconds()
		if r := p.ConvergeSimSec / ivl; math.Abs(r-math.Round(r)) > 1e-9 {
			t.Fatalf("%s: converge_sim_sec %v is not a whole number of intervals", name, p.ConvergeSimSec)
		}
	}
	if p := byName["admit-1"]; p.PinnedSubgroups == 0 {
		t.Fatalf("admit-1: incremental admission should pin existing subgroups, got %+v", p)
	}
}
