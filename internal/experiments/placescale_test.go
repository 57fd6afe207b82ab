package experiments

import (
	"encoding/json"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/placer"
)

// placeScaleTestPoints is a fast grid covering both search mechanisms: a
// rich-pattern single chain and an interchangeable repeated pair.
func placeScaleTestPoints() []PlaceScalePoint {
	return []PlaceScalePoint{
		{Servers: 2, Chains: []int{3}, Delta: 0.5},
		{Servers: 3, Chains: []int{3, 3}, Delta: 0.5},
		{Servers: 2, Chains: []int{1, 2}, Delta: 0.5},
	}
}

// canonPlaceCells serializes cells, so determinism checks compare them
// byte-for-byte.
func canonPlaceCells(t *testing.T, cells []PlaceScaleCell) string {
	t.Helper()
	b, err := json.MarshalIndent(cells, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func placeScaleRunner(parallel int) *Runner {
	r := NewRunner(hw.NewPaperTestbed())
	r.SkipMeasure = true
	r.Parallel = parallel
	r.BruteForceBudget = 1 << 30
	return r
}

// TestPlaceScaleSweepDeterministic: the sweep's cells (results and search
// stats) must be byte-identical at any placer worker count.
func TestPlaceScaleSweepDeterministic(t *testing.T) {
	points := placeScaleTestPoints()
	schemes := []placer.Scheme{placer.SchemeLemur, placer.SchemeOptimal, placer.SchemeGreedy}
	ref, err := placeScaleRunner(1).PlaceScaleSweep(points, schemes)
	if err != nil {
		t.Fatal(err)
	}
	refCanon := canonPlaceCells(t, ref)
	for _, parallel := range []int{3, 8} {
		cells, err := placeScaleRunner(parallel).PlaceScaleSweep(points, schemes)
		if err != nil {
			t.Fatal(err)
		}
		if got := canonPlaceCells(t, cells); got != refCanon {
			t.Fatalf("parallel=%d: sweep cells differ from serial\n--- serial ---\n%s\n--- parallel ---\n%s",
				parallel, refCanon, got)
		}
	}
}

// TestPlaceScaleSweepBudgetPropagates: a tiny Runner budget must surface as
// Truncated/SkippedCombos in the Optimal stat.
func TestPlaceScaleSweepBudgetPropagates(t *testing.T) {
	r := placeScaleRunner(1)
	r.BruteForceBudget = 2
	cells, err := r.PlaceScaleSweep([]PlaceScalePoint{{Servers: 2, Chains: []int{1, 2}, Delta: 0.5}},
		[]placer.Scheme{placer.SchemeOptimal})
	if err != nil {
		t.Fatal(err)
	}
	opt := cells[0].Schemes[0]
	if !opt.Truncated || opt.SkippedCombos == 0 {
		t.Fatalf("budget 2 on a 1024-combo space: Truncated=%v SkippedCombos=%d",
			opt.Truncated, opt.SkippedCombos)
	}
	if opt.Evaluated+opt.BindRejected > 2 {
		t.Fatalf("budget 2: visited %d combos", opt.Evaluated+opt.BindRejected)
	}
}

// TestPlaceScaleSweepRejectsBadPoint: fleet sizes below one are refused.
func TestPlaceScaleSweepRejectsBadPoint(t *testing.T) {
	_, err := placeScaleRunner(1).PlaceScaleSweep([]PlaceScalePoint{{Servers: 0, Chains: []int{3}, Delta: 0.5}},
		[]placer.Scheme{placer.SchemeOptimal})
	if err == nil {
		t.Fatal("0-server point accepted")
	}
}
