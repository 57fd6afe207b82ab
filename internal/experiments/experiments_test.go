package experiments

import (
	"testing"

	"lemur/internal/hw"
	"lemur/internal/placer"
	"lemur/internal/profile"
)

func TestCanonicalChainsBuild(t *testing.T) {
	for idx := 1; idx <= 5; idx++ {
		graphs, err := BuildChains([]int{idx}, []float64{1e9}, hw.Gbps(100), 0)
		if err != nil {
			t.Fatalf("chain %d: %v", idx, err)
		}
		g := graphs[0]
		wantNodes := map[int]int{1: 14, 2: 6, 3: 5, 4: 15, 5: 4}
		if len(g.Order) != wantNodes[idx] {
			t.Errorf("chain %d: %d nodes, want %d", idx, len(g.Order), wantNodes[idx])
		}
		wantPaths := map[int]int{1: 3, 2: 3, 3: 1, 4: 3, 5: 1}
		if got := len(g.Paths()); got != wantPaths[idx] {
			t.Errorf("chain %d: %d paths, want %d", idx, got, wantPaths[idx])
		}
	}
	if _, err := ChainSpec(9, 1, 1, 0); err == nil {
		t.Error("want error for unknown chain")
	}
}

func TestBaseRatesRegime(t *testing.T) {
	topo := hw.NewPaperTestbed()
	bases, err := BaseRates([]int{1, 2, 3, 4, 5}, topo, profile.DefaultDB())
	if err != nil {
		t.Fatal(err)
	}
	// Chain 2's base is one Encrypt core (~2.2 Gbps); chains 3/4 are
	// Dedup-bound (~0.64 Gbps); chain 1's Encrypt carries half the traffic
	// (~4.5 Gbps); chain 5 is FastEncrypt-bound (~5.8 Gbps).
	approx := func(got, want, tol float64) bool { return got > want-tol && got < want+tol }
	if !approx(bases[1], 2.24e9, 0.15e9) {
		t.Errorf("base2 = %v", bases[1])
	}
	if !approx(bases[2], 0.64e9, 0.05e9) {
		t.Errorf("base3 = %v", bases[2])
	}
	if !approx(bases[3], 0.64e9, 0.05e9) {
		t.Errorf("base4 = %v", bases[3])
	}
	if !approx(bases[0], 4.47e9, 0.3e9) {
		t.Errorf("base1 = %v", bases[0])
	}
	// Chain 5's slowest software NF is its 1024-rule ACL (~4.9 Gbps/core);
	// FastEncrypt (5.8 Gbps/core, non-replicable) is close behind and is
	// what makes server-only placements fail at δ=1.5 (Fig 3b).
	if !approx(bases[4], 4.9e9, 0.3e9) {
		t.Errorf("base5 = %v", bases[4])
	}
}

func TestRunSetLemurFourChains(t *testing.T) {
	r := NewRunner(hw.NewPaperTestbed())
	r.VerifyPackets = 20
	sr, set, err := r.runSet([]int{1, 2, 3, 4}, 0.5, placer.SchemeLemur)
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Feasible {
		t.Fatalf("Lemur infeasible at δ=0.5: %s", sr.Reason)
	}
	if sr.MeasuredAggregate < set.AggTmin {
		t.Errorf("measured %v below aggregate tmin %v", sr.MeasuredAggregate, set.AggTmin)
	}
	if sr.PredictedAggregate <= 0 {
		t.Error("no prediction")
	}
	// Prediction is conservative: measured within ~10% of predicted.
	ratio := sr.MeasuredAggregate / sr.PredictedAggregate
	if ratio < 0.90 || ratio > 1.15 {
		t.Errorf("measured/predicted = %v", ratio)
	}
}

func TestFigure2ShapeAtModerateDelta(t *testing.T) {
	r := NewRunner(hw.NewPaperTestbed())
	schemes := []placer.Scheme{placer.SchemeLemur, placer.SchemeHWPreferred,
		placer.SchemeSWPreferred, placer.SchemeGreedy}
	rows, err := r.figure2Panel([]int{1, 2, 3}, []float64{0.5, 1.5}, schemes)
	if err != nil {
		t.Fatal(err)
	}
	get := func(row deltaRow, s placer.Scheme) *schemeResult {
		for _, sr := range row.Schemes {
			if sr.Scheme == s {
				return sr
			}
		}
		return nil
	}
	for _, row := range rows {
		lemur := get(row, placer.SchemeLemur)
		if !lemur.Feasible {
			t.Fatalf("δ=%v: Lemur infeasible: %s", row.Set.Delta, lemur.Reason)
		}
		// SW Preferred collapses chains into non-replicable subgroups and
		// fails even at low δ (§5.2).
		if sw := get(row, placer.SchemeSWPreferred); sw.Feasible {
			t.Errorf("δ=%v: SWPreferred should fail", row.Set.Delta)
		}
		for _, sr := range row.Schemes {
			if sr.Feasible && sr.Marginal > lemur.Marginal+1e7 {
				t.Errorf("δ=%v: %s marginal %v beats Lemur %v",
					row.Set.Delta, sr.Scheme, sr.Marginal, lemur.Marginal)
			}
		}
	}
}
