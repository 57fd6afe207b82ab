// Benchmark harness: BenchmarkPaper regenerates each section of the paper's
// evaluation (§5) and of the sweeps beyond it through
// experiments.Runner.WritePaper, the renderer behind cmd/lemur-bench -paper,
// whose text TestPaperGolden and TestBeyondGolden hold to
// internal/experiments/testdata/paper.golden and beyond.golden; the rest
// guard the Optimal search's cost and time the deploy path (the placer
// benchmarks live in internal/experiments). EXPERIMENTS.md records the
// paper-reported vs measured values.
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

// TestPlaceOptimalCostGuard pins the Optimal scheme's cost envelope on the
// experiments.BenchmarkPlacerBruteForce fixture (four-chain set, δ=0.5, budget 2000,
// built and placed from scratch each time, as Runner.runSet does): a pruning,
// binder, bound or evaluation-scratch regression that blows up search work
// fails CI here instead of silently multiplying solve time. The allocation
// ceilings hold the measured baseline (~14.8k allocs per solve, ~7.4 per
// evaluated combo: pattern enumeration, the materialised Results that can
// still win and the warm-up of the one worker scratch a serial solve uses —
// a stage check on a warm compile cache allocates nothing, see
// placer.TestStageCheckAllocs, nor does a warm evaluation, see
// placer.TestEvaluateCandidateSteadyStateAllocs; with a per-input stage
// memo in front of the compile cache the same solve was ~18.1k, with a
// scratch per candidate slot ~22.9k, with per-candidate dependency lists on
// the heap ~225k). The wall-clock bound (~66 ms measured) is a
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
	if allocs > 16.5e3 && !raceEnabled {
		t.Errorf("allocations per solve %.0f exceed the 16.5k guard", allocs)
	}
	if perCombo > 8.2 && !raceEnabled {
		t.Errorf("allocations per evaluated combo %.1f exceed the 8.2 guard", perCombo)
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
