package experiments

import (
	"fmt"

	"lemur/internal/hw"
	"lemur/internal/placer"
)

// placeScalePoint is one cell of the placement-scale sweep: a fleet size
// crossed with a canonical chain set.
type placeScalePoint struct {
	// Servers is the NF-server fleet size (hw.WithServers).
	Servers int
	// Chains are canonical chain indices; repeats are deliberate — identical
	// copies are interchangeable, which is what symmetry canonicalization
	// collapses.
	Chains []int
	// Delta scales each chain's t_min off its base rate (the δ of §5.1).
	Delta float64
	// SwitchScale multiplies the ToR pipeline (hw.WithSwitchScale) so stage
	// capacity does not artificially gate the large fleet points; 0 or 1
	// keeps the paper switch.
	SwitchScale int
}

// schemeStat is one scheme's outcome at one sweep point. The search
// fields are populated for the Optimal scheme only.
type schemeStat struct {
	Scheme        string
	Feasible      bool
	AggregateGbps float64

	// Branch-and-bound search accounting (Optimal only; see
	// placer.SearchStats for the counter semantics).
	Combinations      float64
	Evaluated         int
	BindRejected      int
	PrunedSubtrees    int
	DemandPruned      int
	CollapsedSubtrees int
}

// placeScaleCell is one finished sweep point: every scheme's outcome.
type placeScaleCell struct {
	Point   placeScalePoint
	Schemes []schemeStat
}

// placeSchemeStat flattens a placer Result for the sweep table.
func placeSchemeStat(res *placer.Result) schemeStat {
	out := schemeStat{
		Scheme:        string(res.Scheme),
		Feasible:      res.Feasible,
		AggregateGbps: res.PredictedAggregate / 1e9,
	}
	if st := res.Search; st != nil {
		out.Combinations = st.Combinations
		out.Evaluated = st.Evaluated
		out.BindRejected = st.BindRejected
		out.PrunedSubtrees = st.PrunedSubtrees
		out.DemandPruned = st.DemandPruned
		out.CollapsedSubtrees = st.CollapsedSubtrees
	}
	return out
}

// placeScaleSweep runs the placement-scale study: every scheme placed at
// every point, placement only (no deployment or measurement — achieved
// throughput is the LP's predicted aggregate). Points run serially; inside
// each placement the Optimal search fans out across Runner.Parallel
// workers, with byte-identical Results at any worker count.
func (r *Runner) placeScaleSweep(points []placeScalePoint, schemes []placer.Scheme) ([]placeScaleCell, error) {
	cells := make([]placeScaleCell, 0, len(points))
	for _, p := range points {
		if p.Servers < 1 {
			return nil, fmt.Errorf("experiments: place-scale point with %d servers", p.Servers)
		}
		in, _, err := r.on(hw.NewPaperTestbed(hw.WithServers(p.Servers), hw.WithSwitchScale(p.SwitchScale))).input(p.Chains, p.Delta)
		if err != nil {
			return nil, err
		}
		cell := placeScaleCell{Point: p}
		for _, s := range schemes {
			res, err := placer.Place(s, in)
			if err != nil {
				return nil, fmt.Errorf("experiments: place-scale %dx%v %s: %w", p.Servers, p.Chains, s, err)
			}
			cell.Schemes = append(cell.Schemes, placeSchemeStat(res))
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// DefaultPlaceScalePoints is the shipped sweep grid: fleet sizes 4→256
// crossed with chain sets of one to four chains. The sets are chosen to
// exercise every search mechanism: {3} is trivially small, {1,2} and
// {1,2,3} have rich per-chain pattern spaces (incumbent pruning dominates),
// and the repeated pairs {2,2,3,3} and {1,1,2,2} are interchangeable-chain
// sets (symmetry collapse dominates — {1,1,2,2} spans a million-combo raw
// space). The large fleets scale the ToR pipeline so switch stages track
// the fabric instead of gating it.
func DefaultPlaceScalePoints() []placeScalePoint {
	sets := [][]int{{3}, {1, 2}, {1, 2, 3}, {2, 2, 3, 3}, {1, 1, 2, 2}}
	var points []placeScalePoint
	for _, servers := range []int{4, 16, 64, 256} {
		scale := 1
		if servers >= 64 {
			scale = servers / 32
		}
		for _, set := range sets {
			points = append(points, placeScalePoint{
				Servers: servers, Chains: set, Delta: 0.5, SwitchScale: scale,
			})
		}
	}
	return points
}
