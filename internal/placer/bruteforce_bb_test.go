package placer

import (
	"math"
	"math/rand"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/nfgraph"
	"lemur/internal/nfspec"
	"lemur/internal/profile"
)

// exhaustiveTractable bounds the combination spaces the exhaustive reference
// is asked to sweep in the property tests below.
const exhaustiveTractable = 5000

// placeOptimal runs the Optimal search in the given mode with explicit
// knobs and fails the test on error.
func placeOptimal(t *testing.T, in *Input, workers, budget int, mode searchMode) *Result {
	t.Helper()
	cp := *in
	cp.Parallel = workers
	cp.BruteForceBudget = budget
	res, err := placeBruteForce(&cp, mode)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBranchAndBoundMatchesExhaustiveProperty: on 50+ random topologies and
// chain sets whose canonical combination space is tractable, the pruned
// branch-and-bound search (incumbent cuts + demand pruning + symmetry, at
// worker counts 1/3/4) must be byte-identical to the exhaustive serial
// sweep (searchExhaustive: same canonicalization, no pruning, no budget).
// This is the admissibility proof-by-property: an inadmissible bound would
// prune a combo the exhaustive sweep keeps, and the Results would diverge.
func TestBranchAndBoundMatchesExhaustiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(90210))
	compared := 0
	want := 55
	if testing.Short() {
		want = 15
	}
	for trial := 0; compared < want; trial++ {
		if trial > want*20 {
			t.Fatalf("only %d/%d tractable trials after %d attempts", compared, want, trial)
		}
		in := buildRandomInput(t, rng)
		probe := placeOptimal(t, in, 1, 1<<30, searchPruned)
		if probe.Search == nil || probe.Search.Combinations > exhaustiveTractable {
			continue
		}
		compared++
		ex := placeOptimal(t, in, 1, 0, searchExhaustive)
		if ex.Truncated || ex.SkippedCombos != 0 {
			t.Fatalf("trial %d: exhaustive search reported truncation", trial)
		}
		wantCanon := canonResult(in, ex)
		for _, workers := range []int{1, 3, 4} {
			bb := placeOptimal(t, in, workers, 1<<30, searchPruned)
			if bb.Truncated {
				t.Fatalf("trial %d: unbudgeted branch-and-bound truncated", trial)
			}
			if got := canonResult(in, bb); got != wantCanon {
				t.Fatalf("trial %d workers=%d: branch-and-bound differs from exhaustive\n--- exhaustive ---\n%s\n--- b&b ---\n%s",
					trial, workers, wantCanon, got)
			}
			if bb.Search.Visited() > ex.Search.Visited() {
				t.Fatalf("trial %d: b&b visited %d combos, exhaustive only %d",
					trial, bb.Search.Visited(), ex.Search.Visited())
			}
		}
	}
}

// TestBudgetCappedNeverBeatsExhaustive: a budget-capped Optimal run may
// never report a better marginal than the exhaustive sweep, and when the
// budget did not truncate the search the Results must be byte-identical.
func TestBudgetCappedNeverBeatsExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	compared := 0
	want := 50
	if testing.Short() {
		want = 12
	}
	for trial := 0; compared < want; trial++ {
		if trial > want*20 {
			t.Fatalf("only %d/%d tractable trials after %d attempts", compared, want, trial)
		}
		in := buildRandomInput(t, rng)
		probe := placeOptimal(t, in, 1, 1<<30, searchPruned)
		if probe.Search == nil || probe.Search.Combinations > exhaustiveTractable {
			continue
		}
		compared++
		ex := placeOptimal(t, in, 1, 0, searchExhaustive)
		budget := 1 + rng.Intn(25)
		capped := placeOptimal(t, in, 1+rng.Intn(4), budget, searchPruned)
		if capped.Feasible && !ex.Feasible {
			t.Fatalf("trial %d: capped search feasible, exhaustive infeasible", trial)
		}
		if capped.Feasible && capped.Marginal > ex.Marginal+1e-6 {
			t.Fatalf("trial %d: capped marginal %.3f beats exhaustive %.3f",
				trial, capped.Marginal, ex.Marginal)
		}
		if !capped.Truncated {
			if got, want := canonResult(in, capped), canonResult(in, ex); got != want {
				t.Fatalf("trial %d: untruncated capped search differs from exhaustive\n--- exhaustive ---\n%s\n--- capped ---\n%s",
					trial, want, got)
			}
		}
	}
}

// bbFixedInput builds a deterministic multi-server input with repeated
// (interchangeable) chains for the stats/symmetry tests: two copies each of
// two chain shapes on four identical servers.
func bbFixedInput(t *testing.T, servers int) *Input {
	t.Helper()
	src := `
chain ca0 {
  slo { tmin = 2Gbps  tmax = 100Gbps }
  aggregate { src = 10.0.0.0/16 }
  bpf = BPF()
  acl = ACL()
  nat = NAT()
  fwd = IPv4Fwd()
  bpf -> acl -> nat -> fwd
}
chain cb0 {
  slo { tmin = 1Gbps  tmax = 100Gbps }
  aggregate { src = 10.1.0.0/16 }
  enc = Encrypt()
  lb = LB()
  fwd = IPv4Fwd()
  enc -> lb -> fwd
}
chain ca1 {
  slo { tmin = 2Gbps  tmax = 100Gbps }
  aggregate { src = 10.2.0.0/16 }
  bpf = BPF()
  acl = ACL()
  nat = NAT()
  fwd = IPv4Fwd()
  bpf -> acl -> nat -> fwd
}
chain cb1 {
  slo { tmin = 1Gbps  tmax = 100Gbps }
  aggregate { src = 10.3.0.0/16 }
  enc = Encrypt()
  lb = LB()
  fwd = IPv4Fwd()
  enc -> lb -> fwd
}
`
	chains, err := nfspec.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	in := &Input{
		Topo: hw.NewPaperTestbed(hw.WithServers(servers)),
		DB:   profile.DefaultDB(), Restrict: evalRestrict,
	}
	for _, ch := range chains {
		g, err := nfgraph.Build(ch)
		if err != nil {
			t.Fatal(err)
		}
		in.Chains = append(in.Chains, g)
	}
	return in
}

// TestOptimalSearchStatsDeterministic: SearchStats — not just the Result —
// must be identical at any worker count (the fixed evaluation chunk makes
// the incumbent advance at the same enumeration points), and internally
// consistent with the budget.
func TestOptimalSearchStatsDeterministic(t *testing.T) {
	in := bbFixedInput(t, 4)
	ref := placeOptimal(t, in, 1, 1<<30, searchPruned)
	if ref.Search == nil {
		t.Fatal("Optimal result carries no SearchStats")
	}
	if ref.Search.Visited() == 0 {
		t.Fatal("search visited no combos")
	}
	refCanon := canonResult(in, ref)
	for _, workers := range []int{2, 3, 8} {
		res := placeOptimal(t, in, workers, 1<<30, searchPruned)
		if canonResult(in, res) != refCanon {
			t.Fatalf("workers=%d: Result differs from serial", workers)
		}
		if *res.Search != *ref.Search {
			t.Fatalf("workers=%d: SearchStats differ: %+v vs %+v", workers, res.Search, ref.Search)
		}
	}
	if ref.Search.CollapsedSubtrees == 0 {
		t.Fatal("interchangeable chains on a uniform fleet collapsed no subtrees")
	}
	if ref.Search.IncumbentUpdates == 0 && ref.Feasible {
		t.Fatal("feasible search recorded no incumbent updates")
	}
}

// TestSymmetryCollapseInvariant: on a hardware-uniform fleet with repeated
// chains, canonicalization must shrink the visited combo space without
// changing the outcome (feasibility, and marginal up to LP tie noise —
// permuting interchangeable chains relabels LP rows, which may move the
// solver across equal-objective vertices).
func TestSymmetryCollapseInvariant(t *testing.T) {
	in := bbFixedInput(t, 4)
	sym := placeOptimal(t, in, 1, 0, searchExhaustive)
	nosym := placeOptimal(t, in, 1, 0, searchRaw)
	if sym.Feasible != nosym.Feasible {
		t.Fatalf("symmetry changed feasibility: %v vs %v", sym.Feasible, nosym.Feasible)
	}
	if math.Abs(sym.Marginal-nosym.Marginal) > 1e-3*(1+math.Abs(nosym.Marginal)) {
		t.Fatalf("symmetry changed the marginal: %.6g vs %.6g", sym.Marginal, nosym.Marginal)
	}
	if sym.Search.Visited() >= nosym.Search.Visited() {
		t.Fatalf("canonicalization did not shrink the sweep: %d vs %d combos",
			sym.Search.Visited(), nosym.Search.Visited())
	}
	if sym.Search.CollapsedSubtrees == 0 {
		t.Fatal("no subtrees collapsed despite interchangeable chains")
	}
	if nosym.Search.CollapsedSubtrees != 0 {
		t.Fatal("searchRaw still collapsed subtrees")
	}
	// Heterogeneous fleet: symmetry must gate itself off even when chains
	// are interchangeable.
	het := bbFixedInput(t, 4)
	het.Topo.Servers[2].CoresPerSocket++
	hetRes := placeOptimal(t, het, 1, 0, searchExhaustive)
	if hetRes.Search.CollapsedSubtrees != 0 {
		t.Fatal("symmetry collapsed subtrees on a heterogeneous fleet")
	}
}

// TestFirstReasonPruneOrderIndependent: on a fully infeasible input the
// reported Reason must be identical at any worker count, any budget and
// with pruning on or off — it is tracked by enumeration sequence number,
// and incumbent cuts (which depend on evaluation timing) never fire without
// a feasible incumbent.
func TestFirstReasonPruneOrderIndependent(t *testing.T) {
	in := bbFixedInput(t, 2)
	// Raise every t_min beyond the fleet: all combos infeasible.
	for _, g := range in.Chains {
		g.Chain.SLO.TMinBps = hw.Gbps(900)
	}
	ref := placeOptimal(t, in, 1, 0, searchExhaustive)
	if ref.Feasible {
		t.Fatal("expected an infeasible input")
	}
	if ref.Reason == "" {
		t.Fatal("infeasible result carries no reason")
	}
	for _, workers := range []int{1, 4, 8} {
		for _, budget := range []int{5, 50, 1 << 30} {
			res := placeOptimal(t, in, workers, budget, searchPruned)
			if res.Feasible {
				t.Fatalf("workers=%d budget=%d: feasible on infeasible input", workers, budget)
			}
			if res.Reason != ref.Reason {
				t.Fatalf("workers=%d budget=%d: reason %q != exhaustive reason %q",
					workers, budget, res.Reason, ref.Reason)
			}
		}
	}
}

// TestOptimalTruncationFlag: Truncated/SkippedCombos must report exactly
// whether the budget left canonical combos unscored.
func TestOptimalTruncationFlag(t *testing.T) {
	in := bbFixedInput(t, 4)
	ex := placeOptimal(t, in, 1, 0, searchExhaustive)
	space := ex.Search.Visited()
	if space < 4 {
		t.Fatalf("fixture too small: %d canonical combos", space)
	}
	small := placeOptimal(t, in, 2, 3, searchPruned)
	if !small.Truncated || small.SkippedCombos == 0 {
		t.Fatalf("budget 3 of %d: Truncated=%v SkippedCombos=%d",
			space, small.Truncated, small.SkippedCombos)
	}
	if got := small.Search.Visited(); got > 3 {
		t.Fatalf("budget 3: visited %d combos", got)
	}
	big := placeOptimal(t, in, 2, 1<<30, searchPruned)
	if big.Truncated || big.SkippedCombos != 0 {
		t.Fatalf("unbudgeted run reported truncation: Truncated=%v skipped=%d",
			big.Truncated, big.SkippedCombos)
	}
	if ex.Truncated || ex.SkippedCombos != 0 {
		t.Fatal("exhaustive run reported truncation")
	}
}
