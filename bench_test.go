// Benchmark harness: BenchmarkPaper regenerates each section of the paper's
// evaluation (§5) and of the sweeps beyond it through
// experiments.Runner.WritePaper, the renderer behind cmd/lemur-bench -paper,
// whose text TestPaperGolden and TestBeyondGolden hold to
// internal/experiments/testdata/paper.golden and beyond.golden; the rest
// time the placer and the deploy path. EXPERIMENTS.md records the paper-reported vs measured
// values.
//
//	go test -run '^$' -bench=. -benchmem
package lemur

import (
	"io"
	"testing"
	"time"

	"lemur/internal/experiments"
	"lemur/internal/hw"
	"lemur/internal/placer"
	"lemur/internal/profile"
)

// BenchmarkPaper renders each section, §5 and beyond, by its -paper name.
func BenchmarkPaper(b *testing.B) {
	for _, section := range append(experiments.PaperSections(), experiments.BeyondSections()...) {
		b.Run(section, func(b *testing.B) {
			r := experiments.NewRunner(hw.NewPaperTestbed())
			for i := 0; i < b.N; i++ {
				if err := r.WritePaper(io.Discard, section); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPlacerHeuristic(b *testing.B) {
	r := experiments.NewRunner(hw.NewPaperTestbed())
	r.SkipMeasure = true
	for i := 0; i < b.N; i++ {
		sr, _, err := r.RunSet([]int{1, 2, 3, 4}, 0.5, placer.SchemeLemur)
		if err != nil {
			b.Fatal(err)
		}
		if !sr.Feasible {
			b.Fatalf("infeasible: %s", sr.Reason)
		}
	}
}

func BenchmarkPlacerBruteForce(b *testing.B) {
	r := experiments.NewRunner(hw.NewPaperTestbed())
	r.SkipMeasure = true
	r.BruteForceBudget = 2000
	for i := 0; i < b.N; i++ {
		sr, _, err := r.RunSet([]int{1, 2, 3, 4}, 0.5, placer.SchemeOptimal)
		if err != nil {
			b.Fatal(err)
		}
		if !sr.Feasible {
			b.Fatalf("infeasible: %s", sr.Reason)
		}
	}
}

// TestPlaceOptimalCostGuard pins the Optimal scheme's cost envelope on the
// BenchmarkPlacerBruteForce fixture (four-chain set, δ=0.5, budget 2000,
// built and placed from scratch each time, as Runner.RunSet does): a pruning,
// binder, bound or evaluation-scratch regression that blows up search work
// fails CI here instead of silently multiplying solve time. The allocation
// ceilings hold the measured baseline (~18.1k allocs per solve, ~9.0 per
// evaluated combo: pattern enumeration, the materialised Results that can
// still win, the warm-up of the one worker scratch a serial solve uses and
// the stage memo's own entries — a stage-memo miss lowers its candidate on
// the worker's scratch, see placer.TestStageCheckMissAllocs, and a warm
// evaluation allocates nothing, see
// placer.TestEvaluateCandidateSteadyStateAllocs; with a scratch per
// candidate slot the same solve was ~22.9k, with per-candidate dependency
// lists on the heap ~225k). The wall-clock bound (~66 ms measured) is a
// slow-machine-tolerant hang guard.
func TestPlaceOptimalCostGuard(t *testing.T) {
	topo, db, set := hw.NewPaperTestbed(), profile.DefaultDB(), []int{1, 2, 3, 4}
	evaluated := 0
	solve := func() {
		bases, err := experiments.BaseRates(set, topo, db)
		if err != nil {
			t.Fatal(err)
		}
		for i := range bases {
			bases[i] *= 0.5
		}
		chains, err := experiments.BuildChains(set, bases, hw.Gbps(100), 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := placer.Place(placer.SchemeOptimal, &placer.Input{Chains: chains, Topo: topo, DB: db,
			Restrict: experiments.EvalRestrict, BruteForceBudget: 2000, Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Feasible {
			t.Fatalf("infeasible: %s", res.Reason)
		}
		evaluated = res.Search.Evaluated
	}
	start := time.Now()
	allocs := testing.AllocsPerRun(3, solve)
	perSolve := time.Since(start) / 4 // AllocsPerRun does one warmup + 3 runs
	perCombo := allocs / float64(evaluated)
	t.Logf("optimal solve: %.0f allocs, %d combos evaluated (%.1f allocs each), %s wall clock",
		allocs, evaluated, perCombo, perSolve)
	// Without the race detector only (ci.sh's cover pass runs this guard
	// without it): under it the LP tableau is reallocated for most solves,
	// ~65k objects on this fixture.
	if allocs > 20e3 && !raceEnabled {
		t.Errorf("allocations per solve %.0f exceed the 20k guard", allocs)
	}
	if perCombo > 10 && !raceEnabled {
		t.Errorf("allocations per evaluated combo %.1f exceed the 10 guard", perCombo)
	}
	if perSolve > 5*time.Second {
		t.Errorf("solve took %s, over the 5s guard", perSolve)
	}
}

// BenchmarkEndToEndDeploy measures the full pipeline on one chain: parse,
// place, compile, deploy, verify — the quickstart path.
func BenchmarkEndToEndDeploy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := New(WithP4Only("IPv4Fwd"))
		if err := sys.LoadSpec(webSpec); err != nil {
			b.Fatal(err)
		}
		dep, err := sys.Deploy()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dep.SendPackets(10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoalescingAblation quantifies heuristic step 2 (DESIGN.md's
// coalescing design choice): Lemur with and without subgroup coalescing on
// the four-chain set.
func BenchmarkCoalescingAblation(b *testing.B) {
	r := experiments.NewRunner(hw.NewPaperTestbed())
	r.SkipMeasure = true
	var full, flat *experiments.SchemeResult
	for i := 0; i < b.N; i++ {
		var err error
		full, _, err = r.RunSet([]int{1, 2, 3, 4}, 1.5, placer.SchemeLemur)
		if err != nil {
			b.Fatal(err)
		}
		flat, _, err = r.RunSet([]int{1, 2, 3, 4}, 1.5, placer.SchemeNoCoalesce)
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
