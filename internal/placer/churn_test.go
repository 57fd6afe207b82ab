package placer

import (
	"math/rand"
	"strings"
	"testing"

	"lemur/internal/nfgraph"
	"lemur/internal/nfspec"
	"lemur/internal/profile"
)

// buildChurnInput draws a random topology and 2-4 random chains, with a
// small admission-headroom reserve so incremental admissions have core
// budget to land in (an offline placement spends every core on marginal
// throughput).
func buildChurnInput(t *testing.T, rng *rand.Rand) *Input {
	t.Helper()
	nChains := 2 + rng.Intn(3)
	src := ""
	for c := 0; c < nChains; c++ {
		src += randomChainSpec(rng, c)
	}
	chains, err := nfspec.Parse(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	in := &Input{
		Topo: randomTopology(rng), DB: profile.DefaultDB(), Restrict: evalRestrict,
		// Keep Optimal's enumeration tractable across a 60-trial sweep.
		BruteForceBudget: 250,
		HeadroomCores:    2 + rng.Intn(3),
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

// prefixInput copies in restricted to its first n chains (full-capacity
// slice so appends never alias) with the prep cache dropped.
func prefixInput(in *Input, n int) *Input {
	cp := *in
	cp.Chains = in.Chains[:n:n]
	cp.prep = nil
	return &cp
}

// subgroupsByChain groups a result's subgroup pointers by chain slot,
// preserving order.
func subgroupsByChain(subs []*Subgroup) map[int][]*Subgroup {
	out := map[int][]*Subgroup{}
	for _, sg := range subs {
		out[sg.ChainIdx] = append(out[sg.ChainIdx], sg)
	}
	return out
}

// TestAdmitPinningInvariant: over 60 random topologies × every scheme,
// admitting one chain onto a placed system never moves a pinned subgroup —
// the prior chains keep the same *Subgroup pointers with unchanged contents
// and the same node assignments — and the admitted placement is a valid,
// deterministic placement in its own right.
func TestAdmitPinningInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(31177))
	incremental, other := 0, 0
	for trial := 0; trial < 60; trial++ {
		in := buildChurnInput(t, rng)
		n := len(in.Chains)
		for _, scheme := range Schemes() {
			prevIn := prefixInput(in, n-1)
			prev, err := Place(scheme, prevIn)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, scheme, err)
			}
			if !prev.Feasible {
				continue
			}
			snap := snapshotSubgroups(prev.Subgroups)
			prevAssign := cloneAssign(prev.Assign)

			grownIn := prefixInput(in, n)
			rep, err := Admit(prev, grownIn, []int{n - 1})
			if err != nil {
				t.Fatalf("trial %d %s: Admit: %v", trial, scheme, err)
			}
			// Whatever the verdict, prev is never written through.
			verifySnapshot(t, trial, prev.Subgroups, snap)
			for nd, a := range prevAssign {
				if prev.Assign[nd] != a {
					t.Fatalf("trial %d %s: Admit mutated prev.Assign[%s]", trial, scheme, nd.Name())
				}
			}
			if rep.Outcome != AdmitIncremental {
				other++
				if rep.IncrementalReason == "" {
					t.Errorf("trial %d %s: non-incremental verdict without a reason", trial, scheme)
				}
				continue
			}
			incremental++
			next := rep.Result
			if rep.PinnedSubgroups != len(prev.Subgroups) {
				t.Errorf("trial %d %s: PinnedSubgroups = %d, want %d",
					trial, scheme, rep.PinnedSubgroups, len(prev.Subgroups))
			}

			// Pinned chains: identical subgroup pointer sequences and node
			// assignments.
			prevBy, nextBy := subgroupsByChain(prev.Subgroups), subgroupsByChain(next.Subgroups)
			for ci := 0; ci < n-1; ci++ {
				p, nx := prevBy[ci], nextBy[ci]
				if len(p) != len(nx) {
					t.Fatalf("trial %d %s: pinned chain %d subgroup count changed %d -> %d",
						trial, scheme, ci, len(p), len(nx))
				}
				for i := range p {
					if p[i] != nx[i] {
						t.Errorf("trial %d %s: pinned chain %d subgroup %d is a different object",
							trial, scheme, ci, i)
					}
				}
				for _, nd := range in.Chains[ci].Order {
					if next.Assign[nd] != prevAssign[nd] {
						t.Errorf("trial %d %s: pinned chain %d node %s moved %v -> %v",
							trial, scheme, ci, nd.Name(), prevAssign[nd], next.Assign[nd])
					}
				}
			}
			// The new chain's subgroups are fresh objects on its own slot.
			for _, sg := range nextBy[n-1] {
				if _, pinned := snap[sg]; pinned {
					t.Errorf("trial %d %s: admitted chain reuses a pinned subgroup %s", trial, scheme, sg.Name())
				}
			}

			// The admission is a valid placement of the grown input.
			checkInvariants(t, trial, scheme, grownIn, next)

			// And deterministic.
			again, err := Admit(prev, grownIn, []int{n - 1})
			if err != nil {
				t.Fatalf("trial %d %s: second Admit: %v", trial, scheme, err)
			}
			if again.Outcome != AdmitIncremental ||
				canonicalResult(grownIn, again.Result) != canonicalResult(grownIn, next) {
				t.Errorf("trial %d %s: Admit not deterministic", trial, scheme)
			}
		}
	}
	if incremental < 50 {
		t.Fatalf("only %d incremental admissions across the sweep (%d other verdicts); property under-exercised",
			incremental, other)
	}
}

// TestRetirePinningInvariant: over 60 random topologies × every scheme,
// retiring one chain strips exactly that chain's resources while every
// survivor keeps its *Subgroup pointers (unchanged contents) and node
// assignments, survivors stay at or above t_min, and the retired slot is
// marked rather than renumbered.
func TestRetirePinningInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(90210))
	retired := 0
	for trial := 0; trial < 60; trial++ {
		in := buildChurnInput(t, rng)
		for _, scheme := range Schemes() {
			prev, err := Place(scheme, in)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, scheme, err)
			}
			if !prev.Feasible {
				continue
			}
			victim := rng.Intn(len(in.Chains))
			snap := snapshotSubgroups(prev.Subgroups)
			prevAssign := cloneAssign(prev.Assign)

			next, err := Retire(prev, in, []int{victim})
			if err != nil {
				// Removing chains only relaxes constraints.
				t.Fatalf("trial %d %s: Retire of feasible placement failed: %v", trial, scheme, err)
			}
			retired++
			verifySnapshot(t, trial, prev.Subgroups, snap)
			checkInvariants(t, trial, scheme, in, next)

			if !next.IsRetired(victim) {
				t.Fatalf("trial %d %s: retired chain %d not marked", trial, scheme, victim)
			}
			if next.ChainRates[victim] != 0 {
				t.Errorf("trial %d %s: retired chain %d still has rate %g",
					trial, scheme, victim, next.ChainRates[victim])
			}
			for _, sg := range next.Subgroups {
				if sg.ChainIdx == victim {
					t.Errorf("trial %d %s: retired chain still owns subgroup %s", trial, scheme, sg.Name())
				}
			}
			for _, u := range next.NICUses {
				if u.ChainIdx == victim {
					t.Errorf("trial %d %s: retired chain still owns NIC use %s", trial, scheme, u.Node.Name())
				}
			}
			for _, nd := range in.Chains[victim].Order {
				if _, ok := next.Assign[nd]; ok {
					t.Errorf("trial %d %s: retired node %s still assigned", trial, scheme, nd.Name())
				}
			}

			prevBy, nextBy := subgroupsByChain(prev.Subgroups), subgroupsByChain(next.Subgroups)
			for ci := range in.Chains {
				if ci == victim {
					continue
				}
				p, nx := prevBy[ci], nextBy[ci]
				if len(p) != len(nx) {
					t.Fatalf("trial %d %s: surviving chain %d subgroup count changed %d -> %d",
						trial, scheme, ci, len(p), len(nx))
				}
				for i := range p {
					if p[i] != nx[i] {
						t.Errorf("trial %d %s: surviving chain %d subgroup %d is a different object",
							trial, scheme, ci, i)
					}
				}
				for _, nd := range in.Chains[ci].Order {
					if next.Assign[nd] != prevAssign[nd] {
						t.Errorf("trial %d %s: surviving chain %d node %s moved",
							trial, scheme, ci, nd.Name())
					}
				}
				// Released capacity only relaxes the LP: survivors stay at or
				// above t_min.
				if tmin := in.Chains[ci].Chain.SLO.TMinBps; next.ChainRates[ci] < tmin*(1-1e-9) {
					t.Errorf("trial %d %s: surviving chain %d dropped below t_min: %g < %g",
						trial, scheme, ci, next.ChainRates[ci], tmin)
				}
			}
		}
	}
	if retired < 50 {
		t.Fatalf("only %d retirements exercised; property under-exercised", retired)
	}
}

// TestRetireThenAdmitIdentical: the ISSUE property — after retiring a chain,
// admitting an identical chain back (same graph, new tail slot) always
// succeeds when the original placement did: the verdict is never infeasible,
// and with headroom the pin-preserving path re-admits it.
func TestRetireThenAdmitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(4711))
	attempts, incremental := 0, 0
	for trial := 0; trial < 60; trial++ {
		in := buildChurnInput(t, rng)
		prev, err := Place(SchemeLemur, in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !prev.Feasible {
			continue
		}
		victim := rng.Intn(len(in.Chains))
		ret, err := Retire(prev, in, []int{victim})
		if err != nil {
			t.Fatalf("trial %d: Retire: %v", trial, err)
		}

		// Grow the input with the identical chain graph in a fresh tail slot
		// (retired slots are never reused — the slot fixes the SPI range).
		grownIn := prefixInput(in, len(in.Chains))
		grownIn.Chains = append(grownIn.Chains, in.Chains[victim])
		rep, err := Admit(ret, grownIn, []int{len(grownIn.Chains) - 1})
		if err != nil {
			t.Fatalf("trial %d: Admit: %v", trial, err)
		}
		attempts++
		if rep.Outcome == AdmitInfeasible {
			t.Errorf("trial %d: re-admitting the retired chain is infeasible (%s) though the original placement held",
				trial, rep.IncrementalReason)
		}
		if rep.Outcome == AdmitIncremental {
			incremental++
			if !rep.Result.IsRetired(victim) {
				t.Errorf("trial %d: admission lost the retired mark on slot %d", trial, victim)
			}
		}
	}
	if attempts < 30 || incremental < attempts/2 {
		t.Fatalf("%d attempts, %d incremental; property under-exercised", attempts, incremental)
	}
}

// TestAdmitValidation: API misuse is a typed error, not a verdict.
func TestAdmitValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := buildChurnInput(t, rng)
	n := len(in.Chains)
	prev, err := Place(SchemeLemur, prefixInput(in, n-1))
	if err != nil || !prev.Feasible {
		t.Skipf("base placement infeasible: %v", err)
	}
	grownIn := prefixInput(in, n)
	if _, err := Admit(nil, grownIn, []int{n - 1}); err == nil {
		t.Error("nil prev accepted")
	}
	if _, err := Admit(prev, grownIn, nil); err == nil {
		t.Error("empty newChains accepted")
	}
	if _, err := Admit(prev, grownIn, []int{0}); err == nil || !strings.Contains(err.Error(), "contiguous tail") {
		t.Errorf("non-tail newChains: want contiguous-tail error, got %v", err)
	}
	if _, err := Retire(prev, prefixInput(in, n-1), []int{n + 5}); err == nil {
		t.Error("out-of-range retire accepted")
	}
	ret, err := Retire(prev, prefixInput(in, n-1), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Retire(ret, prefixInput(in, n-1), []int{0}); err == nil {
		t.Error("double retire accepted")
	}
}

// TestRetireEmptyIsRevalidation: Retire with no gone chains returns a
// placement equivalent to prev (same pointers, same rates).
func TestRetireEmptyIsRevalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := buildChurnInput(t, rng)
	prev, err := Place(SchemeLemur, in)
	if err != nil || !prev.Feasible {
		t.Skipf("base placement infeasible: %v", err)
	}
	next, err := Retire(prev, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonicalResult(in, next), canonicalResult(in, prev); got != want {
		t.Fatalf("empty Retire differs from prev:\n--- prev\n%s\n--- retire\n%s", want, got)
	}
}
