package placer

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/profile"
)

// chainHalfDiff names the first way got's chain half differs from want's
// ("" when it does not): the dense vectors, the lowering's bounds, and every
// chain entry's content.
func chainHalfDiff(got, want *chainPrep) string {
	switch {
	case !slices.Equal(got.chains, want.chains):
		return "chains"
	case !slices.Equal(got.nodes, want.nodes):
		return "nodes"
	case !slices.Equal(got.base, want.base):
		return "base"
	case !slices.Equal(got.ones, want.ones) || !slices.Equal(got.tmins, want.tmins):
		return "LP vectors"
	case got.maxTables != want.maxTables || got.maxDeps != want.maxDeps:
		return "lowering bounds"
	}
	for ci := range want.ents {
		if !reflect.DeepEqual(*got.ents[ci], *want.ents[ci]) {
			return fmt.Sprintf("entry %d", ci)
		}
	}
	return ""
}

// asFresh fails unless in's prep, however it was derived, matches a fresh
// build for in's chains and a Lemur placement on it deep-equals one on the
// fresh build.
func asFresh(t *testing.T, label string, in *Input) {
	t.Helper()
	fresh := *in
	fresh.prep = nil
	fresh.ensurePrep()
	if d := chainHalfDiff(in.prep.chainPrep, fresh.prep.chainPrep); d != "" {
		t.Fatalf("%s: the derived chain half differs from a fresh build in its %s", label, d)
	}
	got, err := Place(SchemeLemur, in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Place(SchemeLemur, &fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: placing on the derived prep differs from placing on a fresh one:\n%s\nwant:\n%s",
			label, canonResult(in, got), canonResult(&fresh, want))
	}
}

// TestChainPrepExtensionMatchesFresh: over random admit sequences, every
// chain half derived within a prep family matches one built fresh for the
// same chain set — vectors, bounds and entries — and places the same: an
// extension, which shares the running chains' entries and writes the new
// ones into its store in place once the store has room; two sibling
// extensions of one prep by different chains, the second of which must not
// overwrite the first; a retry of an extension from the same prep, which
// reads back what the first attempt wrote; a compaction, which keeps the
// entries of the chains it does not renumber; and a swapped chain list. A
// changed cost database starts a family of its own, and no change of chain
// set carries a stage memo over.
func TestChainPrepExtensionMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(2502))
	extended, inPlace, siblings, retries, compactions := 0, 0, 0, 0, 0
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(6)
		src := ""
		for c := 0; c < n+1; c++ { // one spare chain for the siblings
			src += randomChainSpec(rng, c)
		}
		all := mustInput(t, hw.NewPaperTestbed(hw.WithServers(1+rng.Intn(3))), src)
		spare := all.Chains[n]
		in := prefixInput(all, 1+rng.Intn(2))
		in.ensurePrep()
		for len(in.Chains) < n {
			k := min(n, len(in.Chains)+1+rng.Intn(2))
			old := in.prep
			grown := *in // carries the prep, as an admission does
			grown.Chains = slices.Clone(all.Chains[:k])
			grown.ensurePrep()
			label := fmt.Sprintf("trial %d: extension %d → %d", trial, len(in.Chains), k)
			asFresh(t, label, &grown)
			for ci := range old.chains {
				if grown.prep.ents[ci] != old.ents[ci] {
					t.Fatalf("%s rebuilt chain %d's entry instead of sharing it", label, ci)
				}
			}
			wroteInPlace := &grown.prep.nodes[0] == &old.nodes[0]
			if wroteInPlace {
				inPlace++
			}
			if grown.prep.stage == old.stage {
				t.Fatalf("%s: the stage memo survived an admission", label)
			}

			// A sibling: the same prep extended by another chain at slot
			// len(in.Chains). The first extension must still read as before.
			sib := *in
			sib.Chains = append(slices.Clone(in.Chains), spare)
			sib.ensurePrep()
			asFresh(t, label+" (sibling)", &sib)
			asFresh(t, label+" (after its sibling)", &grown)
			siblings++

			// A retry of the first extension, after the sibling, reads back
			// what the first wrote past the prep's end when it wrote in place.
			retry := *in
			retry.Chains = slices.Clone(all.Chains[:k])
			retry.ensurePrep()
			asFresh(t, label+" (retry after the sibling)", &retry)
			if wroteInPlace && &retry.prep.nodes[0] != &grown.prep.nodes[0] {
				t.Fatalf("%s: a retried extension copied the chain half", label)
			}
			retries++

			in = &grown
			extended++
		}

		// A compaction: retire a random slot past the first and compact.
		gone := 1 + rng.Intn(len(in.Chains)-1)
		retired := make([]bool, len(in.Chains))
		retired[gone] = true
		cp, idx := compactInput(in, &Result{Retired: retired})
		cp.ensurePrep()
		asFresh(t, fmt.Sprintf("trial %d: compaction of slot %d", trial, gone), cp)
		for j, ci := range idx {
			if shared := cp.prep.ents[j] == in.prep.ents[ci]; shared != (j == ci) {
				t.Fatalf("trial %d: compaction shares slot %d's entry: %v, want %v", trial, j, shared, j == ci)
			}
			if !slices.Equal(cp.prep.ents[j].cycles, in.prep.ents[ci].cycles) ||
				&cp.prep.ents[j].paths[0] != &in.prep.ents[ci].paths[0] {
				t.Fatalf("trial %d: compaction re-derived chain %d's cycles or paths", trial, ci)
			}
		}
		compactions++

		// Two chains swapped: derived in the family, equal to a fresh build.
		swapped := *in
		swapped.Chains = slices.Clone(in.Chains)
		swapped.Chains[0], swapped.Chains[1] = swapped.Chains[1], swapped.Chains[0]
		swapped.ensurePrep()
		asFresh(t, fmt.Sprintf("trial %d: swapped chain list", trial), &swapped)
		if swapped.prep.stage == in.prep.stage {
			t.Fatalf("trial %d: the stage memo survived a swapped chain list", trial)
		}

		// Another cost database over the same chains: a family of its own.
		redb := *in
		redb.DB = profile.DefaultDB()
		redb.ensurePrep()
		if redb.prep.fam == in.prep.fam || redb.prep.fam.db != redb.DB || redb.prep.ents[0] == in.prep.ents[0] {
			t.Fatalf("trial %d: a changed cost database kept the old family", trial)
		}
	}
	if extended < 60 || inPlace == 0 || siblings < 60 || retries < 60 || compactions < 40 {
		t.Fatalf("%d extensions (%d in place), %d siblings, %d retries, %d compactions; property under-exercised",
			extended, inPlace, siblings, retries, compactions)
	}
}
