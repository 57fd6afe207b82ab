package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/placer"
	"lemur/internal/runtime"
)

// latencyTestPoints is the short two-point grid the tests use: one
// underloaded cell and the saturation-knee cell where the drain order shows
// up in the tail.
func latencyTestPoints() []LatencyPoint {
	return []LatencyPoint{
		{LoadFactor: 1.0, Seed: 1},
		{LoadFactor: 4.6, Seed: 6},
	}
}

// TestLatencySweepParallelIdentical: the deadline-compliance sweep must be
// byte-identical at any Runner.Parallel and SimConfig.Workers value — the
// same determinism contract as the other sweeps, here covering the
// per-(point, policy) recompile and the EDF drain machinery running
// concurrently.
func TestLatencySweepParallelIdentical(t *testing.T) {
	cfg := runtime.SimConfig{DurationSec: 0.3}
	run := func(parallel, simWorkers int) []byte {
		r := NewRunner(hw.NewPaperTestbed())
		r.Parallel = parallel
		c := cfg
		c.Workers = simWorkers
		curves, err := r.LatencySweep(DefaultLatencySpec, latencyTestPoints(),
			[]placer.Scheme{placer.SchemeLemur, placer.SchemeSWPreferred}, c)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(curves)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	serial := run(1, 1)
	parallel := run(4, 8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("latency sweep differs across worker counts:\n serial:   %s\n parallel: %s", serial, parallel)
	}
}

// TestLatencySweepEDFComplianceGap pins the deadline sweep's headline property:
// at the saturation knee the EDF arm achieves the same throughput as the
// round-robin baseline — per-core capacity is identical, only drain order
// differs — while keeping strictly more packets inside the deadline.
// Underloaded cells must show both arms fully compliant.
func TestLatencySweepEDFComplianceGap(t *testing.T) {
	r := NewRunner(hw.NewPaperTestbed())
	curves, err := r.LatencySweep(DefaultLatencySpec, latencyTestPoints(),
		[]placer.Scheme{placer.SchemeLemur},
		runtime.SimConfig{DurationSec: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	cv := curves[0]
	if !cv.Feasible {
		t.Fatalf("Lemur placement infeasible: %s", cv.Reason)
	}
	if len(cv.PredictedP99Sec) != 1 {
		t.Fatalf("PredictedP99Sec = %v, want one chain", cv.PredictedP99Sec)
	}

	under := cv.Cells[0]
	for name, run := range map[string]*LatencyRun{"edf": under.EDF, "rr": under.RR} {
		if c := run.DeadlineCompliance[0]; c != 1 {
			t.Errorf("underloaded %s arm: compliance %v, want 1", name, c)
		}
	}

	knee := cv.Cells[1]
	if knee.EDF.AchievedBps[0] != knee.RR.AchievedBps[0] {
		t.Fatalf("knee throughput differs: edf %v vs rr %v — the arms are not capacity-equal",
			knee.EDF.AchievedBps[0], knee.RR.AchievedBps[0])
	}
	edfC, rrC := knee.EDF.DeadlineCompliance[0], knee.RR.DeadlineCompliance[0]
	if edfC <= rrC {
		t.Errorf("knee compliance: edf %v <= rr %v; EDF must strictly win at equal throughput", edfC, rrC)
	}
	if knee.EDF.P99QueueDelaySec[0] >= knee.RR.P99QueueDelaySec[0] {
		t.Errorf("knee p99: edf %v >= rr %v; EDF must cut the tail",
			knee.EDF.P99QueueDelaySec[0], knee.RR.P99QueueDelaySec[0])
	}
}

// TestLatencySweepInfeasibleScheme: a scheme that cannot carry the chain's
// t_min must record an explicit reason and no cells, not a zero-filled
// curve.
func TestLatencySweepInfeasibleScheme(t *testing.T) {
	r := NewRunner(hw.NewPaperTestbed())
	curves, err := r.LatencySweep(DefaultLatencySpec, latencyTestPoints()[:1],
		[]placer.Scheme{placer.SchemeSWPreferred},
		runtime.SimConfig{DurationSec: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	cv := curves[0]
	if cv.Feasible {
		t.Fatal("SW-Preferred placed a 4 Gbps nine-hop server chain; expected infeasibility")
	}
	if !strings.Contains(cv.Reason, "t_min") {
		t.Errorf("infeasibility reason %q does not name the violated SLO", cv.Reason)
	}
	if len(cv.Cells) != 0 {
		t.Errorf("infeasible curve carries %d cells, want none", len(cv.Cells))
	}
}
