package placer

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/profile"
)

// sharesChainPrep reports whether got shares chain ci's path expansion and
// table names with old, the chain half it may have been extended from.
func sharesChainPrep(got, old *chainPrep, ci int) bool {
	if &got.paths[ci][0] != &old.paths[ci][0] {
		return false
	}
	for i := old.base[ci]; i < old.base[ci]+len(old.chains[ci].Order); i++ {
		if len(old.pisaNames[i]) > 0 && &got.pisaNames[i][0] != &old.pisaNames[i][0] {
			return false
		}
	}
	return true
}

// TestChainPrepExtensionMatchesFresh: over random admit sequences, a chain
// half extended k times deep-equals one built fresh for the same chain set —
// nodes, base, cycles, table names, paths, the LP's vectors and the
// lowering's bounds — while sharing the prefix's path expansions and table
// names. A chain list that is not an extension (two pointers swapped) or a
// changed cost database is rebuilt from scratch, and no change of chain set
// carries a stage memo over.
func TestChainPrepExtensionMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(2502))
	extended := 0
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(6)
		src := ""
		for c := 0; c < n; c++ {
			src += randomChainSpec(rng, c)
		}
		all := mustInput(t, hw.NewPaperTestbed(hw.WithServers(1+rng.Intn(3))), src)
		in := prefixInput(all, 1+rng.Intn(2))
		in.ensurePrep()
		for len(in.Chains) < n {
			k := min(n, len(in.Chains)+1+rng.Intn(2))
			old := in.prep
			grown := *in // carries the prep, as an admission does
			grown.Chains = all.Chains[:k:k]
			grown.ensurePrep()
			fresh := prefixInput(all, k)
			fresh.ensurePrep()
			if !reflect.DeepEqual(*grown.prep.chainPrep, *fresh.prep.chainPrep) {
				t.Fatalf("trial %d: chain half extended %d → %d chains differs from a fresh build", trial, len(in.Chains), k)
			}
			for ci := range old.chains {
				if !sharesChainPrep(grown.prep.chainPrep, old.chainPrep, ci) {
					t.Fatalf("trial %d: extension %d → %d rebuilt chain %d instead of sharing it", trial, len(in.Chains), k, ci)
				}
			}
			if grown.prep.stage == old.stage {
				t.Fatalf("trial %d: the stage memo survived an admission", trial)
			}
			in = &grown
			extended++
		}

		// Two chains swapped: not an extension, whatever the length.
		swapped := *in
		swapped.Chains = slices.Clone(in.Chains)
		swapped.Chains[0], swapped.Chains[1] = swapped.Chains[1], swapped.Chains[0]
		swapped.ensurePrep()
		rebuilt := swapped.prep
		for ci := range in.Chains {
			if sharesChainPrep(rebuilt.chainPrep, in.prep.chainPrep, ci) {
				t.Fatalf("trial %d: a swapped chain list shares chain %d of the old chain half", trial, ci)
			}
		}
		if rebuilt.stage == in.prep.stage {
			t.Fatalf("trial %d: the stage memo survived a swapped chain list", trial)
		}
		ref := swapped
		ref.prep = nil
		ref.ensurePrep()
		if !reflect.DeepEqual(*rebuilt.chainPrep, *ref.prep.chainPrep) {
			t.Fatalf("trial %d: the swapped list's chain half differs from a fresh build", trial)
		}

		// Another cost database over the same chains: rebuilt too.
		redb := *in
		redb.DB = profile.DefaultDB()
		redb.ensurePrep()
		if redb.prep.db != redb.DB || sharesChainPrep(redb.prep.chainPrep, in.prep.chainPrep, 0) {
			t.Fatalf("trial %d: a changed cost database kept the old chain half", trial)
		}
	}
	if extended < 60 {
		t.Fatalf("%d extensions; property under-exercised", extended)
	}
}
