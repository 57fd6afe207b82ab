package experiments

import (
	"strings"
	"testing"

	"lemur/internal/chaos"
	"lemur/internal/hw"
	"lemur/internal/placer"
	"lemur/internal/runtime"
)

// TestFailoverSweepCompliance checks the shape of the "SLO compliance under
// k failures" grid and table: one cell per k from 0 to all but one server,
// the k=0 baseline fault-free and fully compliant, every crash cell with a
// failover report of k events, and compliance counts within the chain set.
func TestFailoverSweepCompliance(t *testing.T) {
	topo := hw.NewPaperTestbed(hw.WithServers(2))
	var servers []string
	for _, s := range topo.Servers {
		servers = append(servers, s.Name)
	}
	cells := failoverCells(servers, runtime.SimConfig{DurationSec: 0.25, Scale: 50})
	if len(cells) != len(servers) || cells[0].cfg.Faults != nil || len(cells[len(cells)-1].cfg.Faults.Events) != len(servers)-1 {
		t.Fatalf("failover grid malformed: %+v", cells)
	}

	r := NewRunner(topo)
	r.Parallel = 2
	in, res := placeLemur(t, r, []int{1, 2, 3}, 0.5)
	sims, _, err := r.simulateCells(in, res, cells)
	if err != nil {
		t.Fatal(err)
	}
	for k, sim := range sims {
		if n := compliantChains(in, sim); n < 0 || n > len(in.Chains) {
			t.Fatalf("k=%d compliance out of range: %d/%d", k, n, len(in.Chains))
		}
	}
	if sims[0].Failover != nil {
		t.Error("k=0 baseline must run fault-free")
	}
	if n := compliantChains(in, sims[0]); n != len(in.Chains) {
		t.Errorf("k=0 baseline not fully compliant: %d/%d", n, len(in.Chains))
	}
	for k, sim := range sims[1:] {
		if sim.Failover == nil {
			t.Fatalf("k=%d cell has no failover report", k+1)
		}
		if len(sim.Failover.Events) != k+1 {
			t.Errorf("k=%d cell fired %d events", k+1, len(sim.Failover.Events))
		}
	}
}

// TestFailoverSweepErrorDeterministic: the fan-out reduces errors by cell
// index, like results. Two cells that both fail (their crash targets do not
// exist) must always report cell 0, however the four workers happen to be
// scheduled.
func TestFailoverSweepErrorDeterministic(t *testing.T) {
	ghost := func(target string, seed int64) simCell {
		plan := &chaos.Plan{Events: []chaos.Event{{Kind: chaos.Crash, Target: target, AtSec: 0.05}}}
		return simCell{1, runtime.SimConfig{DurationSec: 0.1, Scale: 50, Seed: seed, Faults: plan}}
	}
	cells := []simCell{ghost("ghost-a", 1), ghost("ghost-b", 2)}
	r := NewRunner(hw.NewPaperTestbed(hw.WithServers(2)))
	r.Parallel = 4
	in, res := placeLemur(t, r, []int{2}, 0.5)
	for run := 0; run < 50; run++ {
		_, _, err := r.simulateCells(in, res, cells)
		if err == nil || !strings.Contains(err.Error(), "simulation cell 0") || !strings.Contains(err.Error(), "ghost-a") {
			t.Fatalf("run %d: err = %v, want simulation cell 0 (ghost-a)", run, err)
		}
	}
}

// TestFailoverSweepParallelIdentical: the failover section's grid — k = 0
// to all but one server crashed — comes back the same at any Parallel and
// SimWorkers, failover reports included.
func TestFailoverSweepParallelIdentical(t *testing.T) {
	topo := hw.NewPaperTestbed(hw.WithServers(3))
	var servers []string
	for _, s := range topo.Servers {
		servers = append(servers, s.Name)
	}
	identicalAcrossWorkers(t, topo, func(r *Runner) (*placer.Input, *placer.Result) {
		return placeLemur(t, r, []int{1, 2, 3}, 0.5)
	}, failoverCells(servers, runtime.SimConfig{DurationSec: 0.1, Scale: 50}))
}
