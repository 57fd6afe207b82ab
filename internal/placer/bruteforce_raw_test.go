package placer_test

import (
	"math"
	"slices"
	"testing"

	"lemur/internal/experiments"
	"lemur/internal/hw"
	"lemur/internal/placer"
	"lemur/internal/profile"
)

// paperInput builds canonical chains at delta times their base rates on
// topo, as the experiments' runner does, with an unbudgeted Optimal search.
func paperInput(t *testing.T, topo *hw.Topology, chains []int, delta float64) *placer.Input {
	t.Helper()
	db := profile.DefaultDB()
	bases, err := experiments.BaseRates(chains, topo, db)
	if err != nil {
		t.Fatal(err)
	}
	tmins := make([]float64, len(bases))
	for i, b := range bases {
		tmins[i] = delta * b
	}
	graphs, err := experiments.BuildChains(chains, tmins, hw.Gbps(100), 0)
	if err != nil {
		t.Fatal(err)
	}
	return &placer.Input{Chains: graphs, Topo: topo, DB: db, Restrict: experiments.EvalRestrict,
		BruteForceBudget: 1 << 30, Parallel: 2}
}

// TestOptimalMatchesRawSearchOnPlaceScaleGrid: on the place-scale grid's
// tractable chain sets (every shipped set but {1,1,2,2}, whose million-combo
// raw space takes tens of seconds) at 4 and 64 servers, the pruned Optimal
// search agrees with the raw search — no symmetry collapse, no incumbent
// cut, no budget — on feasibility and aggregate (up to LP tie noise from
// permuting interchangeable chains), visits no more combos, and neither is
// truncated. The raw search visits the whole cross-product, which is what
// makes the sweep's Combinations/Visited column the speedup over it. Only
// the 4-server row runs under -short.
func TestOptimalMatchesRawSearchOnPlaceScaleGrid(t *testing.T) {
	fleets := []int{4, 64}
	if testing.Short() {
		fleets = fleets[:1]
	}
	compared := 0
	for _, p := range experiments.DefaultPlaceScalePoints() {
		if !slices.Contains(fleets, p.Servers) || slices.Equal(p.Chains, []int{1, 1, 2, 2}) {
			continue
		}
		compared++
		in := paperInput(t, hw.NewPaperTestbed(hw.WithServers(p.Servers), hw.WithSwitchScale(p.SwitchScale)), p.Chains, p.Delta)
		opt, err := placer.Place(placer.SchemeOptimal, in)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := placer.PlaceRawOptimal(in)
		if err != nil {
			t.Fatal(err)
		}
		if raw.Feasible != opt.Feasible {
			t.Fatalf("point %+v: raw feasibility %v != optimal %v", p, raw.Feasible, opt.Feasible)
		}
		rawAgg, optAgg := raw.PredictedAggregate/1e9, opt.PredictedAggregate/1e9
		if diff := math.Abs(rawAgg - optAgg); diff > 1e-3*(1+optAgg) {
			t.Fatalf("point %+v: raw aggregate %.6g Gbps != optimal %.6g", p, rawAgg, optAgg)
		}
		if opt.Search.Visited() > raw.Search.Visited() {
			t.Fatalf("point %+v: b&b visited %d combos, raw only %d", p, opt.Search.Visited(), raw.Search.Visited())
		}
		if float64(raw.Search.Visited()) != raw.Search.Combinations {
			t.Fatalf("point %+v: raw search visited %d of %.0f combos", p, raw.Search.Visited(), raw.Search.Combinations)
		}
		if raw.Truncated || opt.Truncated {
			t.Fatalf("point %+v: unbudgeted search reported truncation", p)
		}
	}
	if compared < 4*len(fleets) {
		t.Fatalf("compared %d points, want %d", compared, 4*len(fleets))
	}
}
