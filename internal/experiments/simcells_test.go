package experiments

import (
	"encoding/json"
	"testing"

	"lemur/internal/chaos"
	"lemur/internal/hw"
	"lemur/internal/placer"
	"lemur/internal/runtime"
)

// placeLemur places canonical chains at delta with Lemur on r's rack.
func placeLemur(t *testing.T, r *Runner, chainIdxs []int, delta float64) (*placer.Input, *placer.Result) {
	t.Helper()
	in, _, err := r.input(chainIdxs, delta)
	if err != nil {
		t.Fatal(err)
	}
	res, err := placeFeasible("test", in)
	if err != nil {
		t.Fatal(err)
	}
	return in, res
}

// identicalAcrossWorkers runs cells over the placement place makes on topo
// at Runner.Parallel 1 and 4 and SimWorkers 1 and 3, and fails unless every
// SimResult, and the NF state each cell's deployment ends with, matches the
// serial run byte for byte.
func identicalAcrossWorkers(t *testing.T, topo *hw.Topology, place func(*Runner) (*placer.Input, *placer.Result), cells []simCell) {
	t.Helper()
	run := func(parallel, simWorkers int) []byte {
		r := NewRunner(topo)
		r.Parallel, r.SimWorkers = parallel, simWorkers
		in, res := place(r)
		sims, deps, err := r.simulateCells(in, res, cells)
		if err != nil {
			t.Fatal(err)
		}
		states := make([][]NFTableState, len(deps))
		for i, d := range deps {
			states[i] = HarvestNFState(d)
		}
		b, err := json.Marshal(struct {
			Sims   []*runtime.SimResult
			States [][]NFTableState
		}{sims, states})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := run(1, 1)
	for _, w := range [][2]int{{4, 1}, {1, 3}, {4, 3}} {
		if got := run(w[0], w[1]); string(got) != string(want) {
			t.Errorf("Parallel=%d SimWorkers=%d differs from 1/1:\n got: %s\nwant: %s", w[0], w[1], got, want)
		}
	}
}

// TestSimulateCellsIdenticalAcrossWorkers: the fan-out's results are the
// same at any Runner.Parallel and SimWorkers. The grid holds one cell of each
// kind the sections run, side by side: a plain load point, a round-robin
// drain, a crash with failover, and a FlowScale population.
func TestSimulateCellsIdenticalAcrossWorkers(t *testing.T) {
	topo := hw.NewPaperTestbed(hw.WithServers(2))
	crash := &chaos.Plan{Events: []chaos.Event{{Kind: chaos.Crash, Target: topo.Servers[0].Name, AtSec: 0.05}}}
	identicalAcrossWorkers(t, topo, func(r *Runner) (*placer.Input, *placer.Result) {
		return placeLemur(t, r, []int{2, 3}, 0.5)
	}, []simCell{
		{0.5, runtime.SimConfig{DurationSec: 0.05, Seed: 1}},
		{2.5, runtime.SimConfig{DurationSec: 0.05, Seed: 2, SchedPolicy: runtime.SchedRR}},
		{1, runtime.SimConfig{DurationSec: 0.1, Scale: 50, Seed: 3, Faults: crash}},
		{1, runtime.SimConfig{DurationSec: 0.05, Seed: 4, FlowScale: 5000}},
	})
}

// TestSimSweepParallelMatchesSerial: a grid shaped like the sim section's —
// load factors below and past saturation over chains [1 2 3], one seed per
// point — comes back the same at any Parallel and SimWorkers.
func TestSimSweepParallelMatchesSerial(t *testing.T) {
	var cells []simCell
	for i, load := range []float64{0.5, 1, 2.5} {
		cells = append(cells, simCell{load, runtime.SimConfig{DurationSec: 0.05, Seed: 1 + int64(i)}})
	}
	identicalAcrossWorkers(t, hw.NewPaperTestbed(), func(r *Runner) (*placer.Input, *placer.Result) {
		return placeLemur(t, r, []int{1, 2, 3}, 0.5)
	}, cells)
}

// TestSimSweepShape: results come back in cell order, the drop rate is ~zero
// under light load and positive past saturation.
func TestSimSweepShape(t *testing.T) {
	r := NewRunner(hw.NewPaperTestbed())
	in, res := placeLemur(t, r, []int{2}, 0.5)
	loads := []float64{0.5, 2.5}
	sims, _, err := r.simulateCells(in, res, []simCell{
		{loads[0], runtime.SimConfig{DurationSec: 0.2, Seed: 1}},
		{loads[1], runtime.SimConfig{DurationSec: 0.2, Seed: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, sim := range sims {
		if sim.OfferedBps[0] != res.ChainRates[0]*loads[i] {
			t.Fatalf("cell %d offered %v, want %v x %v: cells out of order", i, sim.OfferedBps[0], loads[i], res.ChainRates[0])
		}
	}
	if d := sims[0].DropRate[0]; d > 0.01 {
		t.Errorf("light load drop rate %v, want ~0", d)
	}
	if d := sims[1].DropRate[0]; d <= 0 {
		t.Errorf("overload drop rate %v, want > 0", d)
	}
	if sims[1].AchievedBps[0] >= sims[1].OfferedBps[0] {
		t.Error("overloaded cell achieved >= offered")
	}
}
