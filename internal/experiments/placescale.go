package experiments

import (
	"fmt"

	"lemur/internal/hw"
	"lemur/internal/placer"
)

// PlaceScalePoint is one cell of the placement-scale sweep: a fleet size
// crossed with a canonical chain set.
type PlaceScalePoint struct {
	// Servers is the NF-server fleet size (hw.WithServers).
	Servers int `json:"servers"`
	// Chains are canonical chain indices; repeats are deliberate — identical
	// copies are interchangeable, which is what symmetry canonicalization
	// collapses.
	Chains []int `json:"chains"`
	// Delta scales each chain's t_min off its base rate (the δ of §5.1).
	Delta float64 `json:"delta"`
	// SwitchScale multiplies the ToR pipeline (hw.WithSwitchScale) so stage
	// capacity does not artificially gate the large fleet points; 0 or 1
	// keeps the paper switch.
	SwitchScale int `json:"switch_scale,omitempty"`
}

// PlaceSchemeStat is one scheme's outcome at one sweep point. The search
// fields are populated for the Optimal scheme only.
type PlaceSchemeStat struct {
	Scheme        string  `json:"scheme"`
	Feasible      bool    `json:"feasible"`
	Reason        string  `json:"reason,omitempty"`
	AggregateGbps float64 `json:"aggregate_gbps"`
	MarginalGbps  float64 `json:"marginal_gbps"`
	Stages        int     `json:"stages"`
	PlaceNs       int64   `json:"place_ns"`

	// Branch-and-bound search accounting (Optimal only; see
	// placer.SearchStats for the counter semantics).
	Combinations      float64 `json:"combinations,omitempty"`
	Evaluated         int     `json:"evaluated,omitempty"`
	BindRejected      int     `json:"bind_rejected,omitempty"`
	PrunedSubtrees    int     `json:"pruned_subtrees,omitempty"`
	DemandPruned      int     `json:"demand_pruned,omitempty"`
	CollapsedSubtrees int     `json:"collapsed_subtrees,omitempty"`
	IncumbentUpdates  int     `json:"incumbent_updates,omitempty"`
	Truncated         bool    `json:"truncated,omitempty"`
	SkippedCombos     int     `json:"skipped_combos,omitempty"`
	// VisitShare is Visited/Combinations: the fraction of the unpruned
	// cross-product the search actually scored (1 − VisitShare is the
	// combined prune+collapse rate).
	VisitShare float64 `json:"visit_share,omitempty"`
}

// PlaceScaleCell is one finished sweep point: every scheme's outcome, plus —
// when the combination space is within the exhaustive cap — the unpruned,
// symmetry-disabled Optimal reference and the resulting work reduction.
type PlaceScaleCell struct {
	Point   PlaceScalePoint   `json:"point"`
	Schemes []PlaceSchemeStat `json:"schemes"`
	// Exhaustive is the Optimal scheme rerun with ExhaustiveSearch and
	// DisableSymmetry: every non-canonical combination is scored. nil when
	// the space exceeded the sweep's cap.
	Exhaustive *PlaceSchemeStat `json:"exhaustive,omitempty"`
	// SpeedupCombos is exhaustive-visited / branch-and-bound-visited — how
	// many times fewer combos the pruned search scored for the same
	// throughput. 0 when Exhaustive is nil.
	SpeedupCombos float64 `json:"speedup_combos,omitempty"`
}

// placeSchemeStat flattens a placer Result for the sweep artifact.
func placeSchemeStat(res *placer.Result) PlaceSchemeStat {
	out := PlaceSchemeStat{
		Scheme:        string(res.Scheme),
		Feasible:      res.Feasible,
		Reason:        res.Reason,
		AggregateGbps: res.PredictedAggregate / 1e9,
		MarginalGbps:  res.Marginal / 1e9,
		Stages:        res.Stages,
		PlaceNs:       res.PlaceTime.Nanoseconds(),
		Truncated:     res.Truncated,
		SkippedCombos: res.SkippedCombos,
	}
	if st := res.Search; st != nil {
		out.Combinations = st.Combinations
		out.Evaluated = st.Evaluated
		out.BindRejected = st.BindRejected
		out.PrunedSubtrees = st.PrunedSubtrees
		out.DemandPruned = st.DemandPruned
		out.CollapsedSubtrees = st.CollapsedSubtrees
		out.IncumbentUpdates = st.IncumbentUpdates
		if st.Combinations > 0 {
			out.VisitShare = float64(st.Visited()) / st.Combinations
		}
	}
	return out
}

// PlaceScaleTopology builds the fleet a sweep point places onto.
func PlaceScaleTopology(p PlaceScalePoint) *hw.Topology {
	return hw.NewPaperTestbed(hw.WithServers(p.Servers), hw.WithSwitchScale(p.SwitchScale))
}

// PlaceScaleSweep runs the placement-scale study: every scheme placed at
// every point, placement only (no deployment or measurement — achieved
// throughput is the LP's predicted aggregate). Points run serially so the
// recorded solve times are honest; inside each placement the Optimal search
// still fans out across Runner.Parallel workers, with byte-identical
// Results at any worker count.
//
// exhaustiveCap bounds the Optimal reference rerun (ExhaustiveSearch +
// DisableSymmetry): when a point's combination space is at most the cap, the
// cell carries the exhaustive stats and the combos-visited speedup. A cap
// <= 0 disables the reference entirely.
func (r *Runner) PlaceScaleSweep(points []PlaceScalePoint, schemes []placer.Scheme, exhaustiveCap float64) ([]PlaceScaleCell, error) {
	cells := make([]PlaceScaleCell, 0, len(points))
	for _, p := range points {
		if p.Servers < 1 {
			return nil, fmt.Errorf("experiments: place-scale point with %d servers", p.Servers)
		}
		in, _, err := r.on(PlaceScaleTopology(p)).input(p.Chains, p.Delta)
		if err != nil {
			return nil, err
		}
		cell := PlaceScaleCell{Point: p}
		var optimal *placer.Result
		for _, s := range schemes {
			res, err := placer.Place(s, in)
			if err != nil {
				return nil, fmt.Errorf("experiments: place-scale %dx%v %s: %w", p.Servers, p.Chains, s, err)
			}
			if s == placer.SchemeOptimal {
				optimal = res
			}
			cell.Schemes = append(cell.Schemes, placeSchemeStat(res))
		}
		if optimal != nil && optimal.Search != nil && exhaustiveCap > 0 &&
			optimal.Search.Combinations <= exhaustiveCap {
			cp := *in
			cp.ExhaustiveSearch = true
			cp.DisableSymmetry = true
			cp.BruteForceBudget = 0
			ex, err := placer.Place(placer.SchemeOptimal, &cp)
			if err != nil {
				return nil, fmt.Errorf("experiments: place-scale %dx%v exhaustive: %w", p.Servers, p.Chains, err)
			}
			st := placeSchemeStat(ex)
			cell.Exhaustive = &st
			if v := optimal.Search.Visited(); v > 0 && ex.Search != nil {
				cell.SpeedupCombos = float64(ex.Search.Visited()) / float64(v)
			}
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
func DefaultPlaceScalePoints() []PlaceScalePoint {
	sets := [][]int{{3}, {1, 2}, {1, 2, 3}, {2, 2, 3, 3}, {1, 1, 2, 2}}
	var points []PlaceScalePoint
	for _, servers := range []int{4, 16, 64, 256} {
		scale := 1
		if servers >= 64 {
			scale = servers / 32
		}
		for _, set := range sets {
			points = append(points, PlaceScalePoint{
				Servers: servers, Chains: set, Delta: 0.5, SwitchScale: scale,
			})
		}
	}
	return points
}
