package experiments

import (
	"testing"

	"lemur/internal/hw"
	"lemur/internal/placer"
)

func TestFigure3aShape(t *testing.T) {
	rows, err := NewRunner(newPaperTopo()).Figure3a([]float64{0.5, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	low, high := rows[0], rows[1]
	if !low.SingleFeasible || !low.TwoServerFeasible {
		t.Fatalf("δ=0.5 must be feasible on both: single=%v(%s) double=%v",
			low.SingleFeasible, low.SingleReason, low.TwoServerFeasible)
	}
	// §5.3: the single server gets less than the two-server aggregate.
	if low.SingleAggregate >= low.TwoServerAggregate {
		t.Errorf("single %v >= double %v at δ=0.5", low.SingleAggregate, low.TwoServerAggregate)
	}
	// §5.3: at δ=1.5 the single-server case runs out of cores.
	if high.SingleFeasible {
		t.Errorf("δ=1.5 single-server should be infeasible")
	}
	if !high.TwoServerFeasible {
		t.Errorf("δ=1.5 two-server should be feasible")
	}
}

func TestFigure3bShape(t *testing.T) {
	rows, err := NewRunner(newPaperTopo()).Figure3b([]float64{0.5, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	low, high := rows[0], rows[1]
	if !low.ServerOnlyFeasible || !low.WithNICFeasible {
		t.Fatalf("δ=0.5 must be feasible both ways")
	}
	if !low.NICUsed {
		t.Error("Lemur did not offload to the SmartNIC at δ=0.5")
	}
	// Offload lifts throughput at low δ.
	if low.WithNICAgg <= low.ServerOnlyAgg {
		t.Errorf("NIC %v <= server-only %v at δ=0.5", low.WithNICAgg, low.ServerOnlyAgg)
	}
	// §5.3: at δ=1.5 there is no server-only solution; with the NIC the
	// chain approaches the 40G line rate.
	if high.ServerOnlyFeasible {
		t.Error("δ=1.5 server-only should be infeasible")
	}
	if !high.WithNICFeasible {
		t.Error("δ=1.5 with NIC should be feasible")
	}
	if low.WithNICAgg < 30e9 {
		t.Errorf("NIC aggregate %v, want near the 40G line rate", low.WithNICAgg)
	}
}

func TestFigure3cShape(t *testing.T) {
	r := Figure3c()
	if r.Speedup < 5 || r.Speedup > 20 {
		t.Errorf("OF/server speedup = %v, want ~10x (of=%v server=%v)",
			r.Speedup, r.OFRateBps, r.ServerRateBps)
	}
	if r.ServerRateBps > 1.5e9 {
		t.Errorf("server-stitched ACL rate = %v, want sub-Gbps-ish", r.ServerRateBps)
	}
}

func TestExtremeConfigAllSchemes(t *testing.T) {
	rows, err := ExtremeConfig([]placer.Scheme{
		placer.SchemeLemur, placer.SchemeHWPreferred, placer.SchemeMinBounce, placer.SchemeSWPreferred})
	if err != nil {
		t.Fatal(err)
	}
	byScheme := map[placer.Scheme]ExtremeConfigResult{}
	for _, row := range rows {
		byScheme[row.Scheme] = row
	}
	lemur := byScheme[placer.SchemeLemur]
	if !lemur.Feasible {
		t.Fatalf("Lemur infeasible: %s", lemur.Reason)
	}
	if lemur.NATsOnSwitch != 10 || lemur.NATsOnServer != 1 {
		t.Errorf("Lemur NATs = %d/%d, want 10 switch / 1 server",
			lemur.NATsOnSwitch, lemur.NATsOnServer)
	}
	if lemur.Stages != 12 {
		t.Errorf("Lemur stages = %d, want 12", lemur.Stages)
	}
	for _, s := range []placer.Scheme{placer.SchemeHWPreferred, placer.SchemeMinBounce, placer.SchemeSWPreferred} {
		if byScheme[s].Feasible {
			t.Errorf("%s should be infeasible on the extreme config", s)
		}
	}
}

func TestSensitivityTolerant(t *testing.T) {
	r := NewRunner(newPaperTopo())
	rows, baseMarginal, err := r.Sensitivity(0.5, []float64{0.01, 0.02, 0.04, 0.08, 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if baseMarginal <= 0 {
		t.Fatalf("base marginal = %v", baseMarginal)
	}
	// Small errors must be absorbed by ceil-slack in core allocation.
	if !rows[0].SameAsBase {
		t.Errorf("1%% error already changed the outcome: %+v", rows[0])
	}
	// Tolerance is monotone-ish: once broken it stays broken or worse.
	for i := 1; i < len(rows); i++ {
		if rows[i].SameAsBase && !rows[i-1].SameAsBase {
			t.Logf("note: tolerance non-monotone at %v", rows[i].ErrorFraction)
		}
	}
}

func TestLatencyTradeoff(t *testing.T) {
	rows, err := NewRunner(newPaperTopo()).Latency([]float64{45e-6, 35e-6})
	if err != nil {
		t.Fatal(err)
	}
	loose, tight := rows[0], rows[1]
	if !loose.Feasible {
		t.Fatalf("45us infeasible")
	}
	if !tight.Feasible {
		t.Fatalf("35us should be feasible via coalescing")
	}
	if true {
		// Tighter budget must not allow more bounces or more throughput.
		if tight.Bounces > loose.Bounces {
			t.Errorf("tight dmax has more bounces: %d > %d", tight.Bounces, loose.Bounces)
		}
		if tight.Aggregate > loose.Aggregate*1.001 {
			t.Errorf("tight dmax throughput %v > loose %v", tight.Aggregate, loose.Aggregate)
		}
	}
}

func TestTable4SmallRun(t *testing.T) {
	rows, err := Table4(20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8 (4 NFs x 2 NUMA)", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		same, diff := rows[i], rows[i+1]
		if same.NF != diff.NF {
			t.Fatalf("row pairing broken: %s vs %s", same.NF, diff.NF)
		}
		if diff.Stats.Mean <= same.Stats.Mean {
			t.Errorf("%s: diff-NUMA mean %v <= same-NUMA %v", same.NF, diff.Stats.Mean, same.Stats.Mean)
		}
		if same.Stats.Max/same.Stats.Mean > 1.065 {
			t.Errorf("%s: worst more than 6.5%% above mean", same.NF)
		}
	}
}

// TestTable4RejectsNonPositiveRuns: a run count below one is an error, not
// a silent switch to the paper's 500.
func TestTable4RejectsNonPositiveRuns(t *testing.T) {
	for _, runs := range []int{0, -3} {
		if rows, err := Table4(runs); err == nil {
			t.Errorf("Table4(%d) returned %d rows, want an error", runs, len(rows))
		}
	}
}

func TestPlacerScaling(t *testing.T) {
	r := NewRunner(newPaperTopo())
	sc, err := r.PlacerScaling(0.5, 500)
	if err != nil {
		t.Fatal(err)
	}
	if sc.BruteForce.PlaceTime <= sc.Heuristic.PlaceTime {
		t.Errorf("brute force (%v) not slower than heuristic (%v)", sc.BruteForce.PlaceTime, sc.Heuristic.PlaceTime)
	}
	if !sc.SameResult {
		t.Log("note: heuristic did not match budgeted brute force (acceptable under tight budgets)")
	}
}

func TestMetaCompilerLoCShare(t *testing.T) {
	r := NewRunner(newPaperTopo())
	loc, err := r.MetaCompilerLoC(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if loc.AutoShare < 0.25 || loc.AutoShare > 0.95 {
		t.Errorf("auto-generated share = %v (p4=%d hand=%d)", loc.AutoShare, loc.P4Total, loc.Handwritten)
	}
	if loc.P4Steering <= 0 || loc.P4Steering >= loc.P4Total {
		t.Errorf("steering lines = %d of %d", loc.P4Steering, loc.P4Total)
	}
	// Steering dominates the generated code, as in the paper (~600/820).
	if float64(loc.P4Steering)/float64(loc.P4Total) < 0.3 {
		t.Errorf("steering share = %d/%d, expected the bulk", loc.P4Steering, loc.P4Total)
	}
}

func newPaperTopo() *hw.Topology { return hw.NewPaperTestbed() }
