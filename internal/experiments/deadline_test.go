package experiments

import (
	"strings"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/placer"
	"lemur/internal/runtime"
)

// TestLatencySweepEDFComplianceGap pins the deadline section's headline
// property: at the saturation knee (load 4.6, seed 6) the EDF arm achieves
// the same throughput as the round-robin baseline — per-core capacity is
// identical, only drain order differs — while keeping strictly more packets
// inside the deadline and a strictly shorter tail. The underloaded cell
// (load 1, seed 1) must show both arms fully compliant.
func TestLatencySweepEDFComplianceGap(t *testing.T) {
	r := NewRunner(hw.NewPaperTestbed())
	in, err := r.latencyInput()
	if err != nil {
		t.Fatal(err)
	}
	res, err := placer.Place(placer.SchemeLemur, in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("Lemur placement infeasible: %s", res.Reason)
	}
	if len(res.PredictedP99Sec) != 1 {
		t.Fatalf("PredictedP99Sec = %v, want one chain", res.PredictedP99Sec)
	}
	var cells []simCell
	for _, pt := range []struct {
		load float64
		seed int64
	}{{1.0, 1}, {4.6, 6}} {
		for _, pol := range []string{runtime.SchedEDF, runtime.SchedRR} {
			cells = append(cells, simCell{pt.load, runtime.SimConfig{DurationSec: 1.0, Seed: pt.seed, SchedPolicy: pol}})
		}
	}
	sims, _, err := r.simulateCells(in, res, cells)
	if err != nil {
		t.Fatal(err)
	}

	for i, name := range []string{"edf", "rr"} {
		if c := sims[i].DeadlineCompliance[0]; c != 1 {
			t.Errorf("underloaded %s arm: compliance %v, want 1", name, c)
		}
	}

	edf, rr := sims[2], sims[3]
	if edf.AchievedBps[0] != rr.AchievedBps[0] {
		t.Fatalf("knee throughput differs: edf %v vs rr %v — the arms are not capacity-equal",
			edf.AchievedBps[0], rr.AchievedBps[0])
	}
	if edfC, rrC := edf.DeadlineCompliance[0], rr.DeadlineCompliance[0]; edfC <= rrC {
		t.Errorf("knee compliance: edf %v <= rr %v; EDF must strictly win at equal throughput", edfC, rrC)
	}
	if edf.P99QueueDelaySec[0] >= rr.P99QueueDelaySec[0] {
		t.Errorf("knee p99: edf %v >= rr %v; EDF must cut the tail",
			edf.P99QueueDelaySec[0], rr.P99QueueDelaySec[0])
	}
}

// TestLatencySweepInfeasibleScheme: SW-Preferred cannot carry the deadline
// chain's t_min, and its placement says so, which is the reason the
// deadline section prints in place of a curve.
func TestLatencySweepInfeasibleScheme(t *testing.T) {
	r := NewRunner(hw.NewPaperTestbed())
	in, err := r.latencyInput()
	if err != nil {
		t.Fatal(err)
	}
	res, err := placer.Place(placer.SchemeSWPreferred, in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("SW-Preferred placed a 4 Gbps nine-hop server chain; expected infeasibility")
	}
	if !strings.Contains(res.Reason, "t_min") {
		t.Errorf("infeasibility reason %q does not name the violated SLO", res.Reason)
	}
}

// TestLatencySweepParallelIdentical: the deadline section's pairs — the
// same load and seed drained EDF, then round-robin — come back the same at
// any Parallel and SimWorkers.
func TestLatencySweepParallelIdentical(t *testing.T) {
	var cells []simCell
	for i, load := range []float64{1, 4.6} {
		for _, pol := range []string{runtime.SchedEDF, runtime.SchedRR} {
			cells = append(cells, simCell{load, runtime.SimConfig{DurationSec: 0.05, Seed: 1 + int64(i), SchedPolicy: pol}})
		}
	}
	identicalAcrossWorkers(t, hw.NewPaperTestbed(), func(r *Runner) (*placer.Input, *placer.Result) {
		in, err := r.latencyInput()
		if err != nil {
			t.Fatal(err)
		}
		res, err := placeFeasible("deadline", placer.SchemeLemur, in)
		if err != nil {
			t.Fatal(err)
		}
		return in, res
	}, cells)
}
