package main

import (
	"fmt"

	"lemur/internal/experiments"
	"lemur/internal/hw"
	"lemur/internal/placer"
)

// placeScaleReport is the -place-scale-out JSON document (BENCH_6.json).
type placeScaleReport struct {
	Benchmark string                       `json:"benchmark"`
	Meta      runMeta                      `json:"meta"`
	Config    map[string]any               `json:"config"`
	Cells     []experiments.PlaceScaleCell `json:"cells"`
}

// runPlaceScale is the -place-scale command: the interactive-placement
// solve-time curve. Every scheme places every (fleet size × chain set) cell
// placement-only; the Optimal scheme reports its branch-and-bound search
// accounting, and its speedup column is the unpruned cross-product over the
// combos the search scored (Combinations / Visited). Placement results are
// byte-identical at any -parallel value; solve times are wall clock
// (generate with -parallel 1 for honest serial timings).
func (b bench) runPlaceScale(outPath string) {
	r := b.newRunner(hw.NewPaperTestbed())
	r.SkipMeasure = true
	r.BruteForceBudget = 1 << 30 // the sweep measures pruning, not budgets
	points := experiments.DefaultPlaceScalePoints()
	schemes := placer.Schemes()

	cells, err := r.PlaceScaleSweep(points, schemes)
	if err != nil {
		fatal(err)
	}

	fmt.Println("placement-scale sweep: fleet size × chain set, all schemes, δ=0.5, placement only")
	w := tw()
	fmt.Fprintln(w, "servers\tchains\tscheme\tfeasible\taggregate\tsolve\tcombos\tvisited\tpruned\tcollapsed\tspeedup\t")
	for _, c := range cells {
		for _, s := range c.Schemes {
			feas := "yes"
			if !s.Feasible {
				feas = "no"
			}
			search, visited, pruned, collapsed, speedup := "-", "-", "-", "-", "-"
			if s.Scheme == string(placer.SchemeOptimal) {
				search = fmt.Sprintf("%.0f", s.Combinations)
				v := s.Evaluated + s.BindRejected
				visited = fmt.Sprintf("%d", v)
				pruned = fmt.Sprintf("%d", s.PrunedSubtrees+s.DemandPruned)
				collapsed = fmt.Sprintf("%d", s.CollapsedSubtrees)
				if v > 0 {
					speedup = fmt.Sprintf("%.1fx", s.Combinations/float64(v))
				}
			}
			fmt.Fprintf(w, "%d\t%v\t%s\t%s\t%.1fG\t%s\t%s\t%s\t%s\t%s\t%s\t\n",
				c.Point.Servers, c.Point.Chains, s.Scheme, feas, s.AggregateGbps,
				fmtNs(s.PlaceNs), search, visited, pruned, collapsed, speedup)
		}
	}
	w.Flush()

	if outPath == "" {
		return
	}
	report := placeScaleReport{
		Benchmark: "lemur-bench -place-scale -place-scale-out (placement solve-time curve)",
		Meta:      newRunMeta(b.parallel, 0),
		Config: map[string]any{
			"delta":    0.5,
			"restrict": "IPv4Fwd pinned to PISA (Table 3 footnote)",
			"schemes":  schemes,
			"note":     "placement only (SkipMeasure); aggregate_gbps is the LP's predicted achieved throughput; solve times are wall clock — generate with -parallel 1 for honest serial timings",
		},
		Cells: cells,
	}
	writeJSON(outPath, report)
	fmt.Printf("wrote %s (%d cells)\n", outPath, len(report.Cells))
}

// fmtNs renders a solve time at a human scale.
func fmtNs(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%.0fus", float64(ns)/1e3)
	}
}
