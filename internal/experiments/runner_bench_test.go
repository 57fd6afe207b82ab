package experiments

import (
	"testing"

	"lemur/internal/hw"
	"lemur/internal/placer"
)

// BenchmarkPlacerHeuristic times the Lemur heuristic on the four-chain set
// at δ=0.5, placement only; BenchmarkPlacerBruteForce the Optimal search on
// the same set at budget 2000 (§5.3's placer scaling).
func BenchmarkPlacerHeuristic(b *testing.B) {
	r := NewRunner(hw.NewPaperTestbed())
	r.SkipMeasure = true
	for i := 0; i < b.N; i++ {
		sr, _, err := r.runSet([]int{1, 2, 3, 4}, 0.5, placer.SchemeLemur)
		if err != nil {
			b.Fatal(err)
		}
		if !sr.Feasible {
			b.Fatalf("infeasible: %s", sr.Reason)
		}
	}
}

func BenchmarkPlacerBruteForce(b *testing.B) {
	r := NewRunner(hw.NewPaperTestbed())
	r.SkipMeasure = true
	r.BruteForceBudget = 2000
	for i := 0; i < b.N; i++ {
		sr, _, err := r.runSet([]int{1, 2, 3, 4}, 0.5, placer.SchemeOptimal)
		if err != nil {
			b.Fatal(err)
		}
		if !sr.Feasible {
			b.Fatalf("infeasible: %s", sr.Reason)
		}
	}
}

// BenchmarkCoalescingAblation quantifies heuristic step 2 (DESIGN.md's
// coalescing design choice): Lemur with and without subgroup coalescing on
// the four-chain set.
func BenchmarkCoalescingAblation(b *testing.B) {
	r := NewRunner(hw.NewPaperTestbed())
	r.SkipMeasure = true
	var full, flat *schemeResult
	for i := 0; i < b.N; i++ {
		var err error
		full, _, err = r.runSet([]int{1, 2, 3, 4}, 1.5, placer.SchemeLemur)
		if err != nil {
			b.Fatal(err)
		}
		flat, _, err = r.runSet([]int{1, 2, 3, 4}, 1.5, placer.SchemeNoCoalesce)
		if err != nil {
			b.Fatal(err)
		}
	}
	if full.Feasible {
		b.ReportMetric(full.Marginal/1e9, "lemur-marginal-gbps")
	}
	if flat.Feasible {
		b.ReportMetric(flat.Marginal/1e9, "nocoalesce-marginal-gbps")
	} else {
		b.ReportMetric(0, "nocoalesce-marginal-gbps")
	}
}
