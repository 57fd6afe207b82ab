package placer_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lemur/internal/experiments"
	"lemur/internal/hw"
	"lemur/internal/nfgraph"
	"lemur/internal/nfspec"
	"lemur/internal/pisa"
	"lemur/internal/placer"
	"lemur/internal/profile"
)

// canonicalInput builds canonical chains idxs (1-5, repeats allowed) on the
// paper testbed.
func canonicalInput(t *testing.T, idxs []int) *placer.Input {
	t.Helper()
	in := &placer.Input{Topo: hw.NewPaperTestbed(hw.WithServers(4)), DB: profile.DefaultDB(),
		Restrict: experiments.EvalRestrict}
	for _, idx := range idxs {
		src, err := experiments.ChainSpec(idx, 1e9, hw.Gbps(100), 0)
		if err != nil {
			t.Fatal(err)
		}
		chains, err := nfspec.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range chains {
			g, err := nfgraph.Build(c)
			if err != nil {
				t.Fatal(err)
			}
			in.Chains = append(in.Chains, g)
		}
	}
	return in
}

func diffTables(got, want []pisa.LogicalTable) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d tables, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Name != w.Name || g.SRAM != w.SRAM || g.TCAM != w.TCAM || !slices.Equal(g.Deps, w.Deps) {
			return fmt.Sprintf("table %d = %+v, want %+v", i, g, w)
		}
		if len(g.Deps) == 0 && g.Deps != nil {
			return fmt.Sprintf("table %d: empty dependency list is not nil", i)
		}
	}
	return ""
}

// TestSwitchTablesMatchReference: the arena lowering gives, table for table —
// names, SRAM/TCAM demand, dependency lists — what the allocating body it
// replaced gives (kept in tables_test.go), on seeded random assignments over
// the canonical chains: any node on any platform or on none, both optimize
// values, with and without a prep to take names and bounds from, and on a
// buffer so tight that every list overflows the arena into a new block. An
// earlier call's tables must survive a later call untouched.
func TestSwitchTablesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	platforms := []hw.Platform{hw.PISA, hw.PISA, hw.PISA, hw.Server, hw.Server, hw.SmartNIC}
	for _, set := range [][]int{{1}, {2}, {3}, {4}, {5}, {1, 2, 3, 4, 5}, {2, 2, 3, 3}} {
		for _, prepped := range []bool{false, true} {
			in := canonicalInput(t, set)
			if prepped {
				// Any Place installs the prep; its result is not used.
				if _, err := placer.Place(placer.SchemeHWPreferred, in); err != nil {
					t.Fatal(err)
				}
			}
			for trial := 0; trial < 40; trial++ {
				assigns := make([]map[*nfgraph.Node]placer.Assign, len(in.Chains))
				for ci, g := range in.Chains {
					assigns[ci] = map[*nfgraph.Node]placer.Assign{}
					for _, n := range g.Order {
						if rng.Intn(10) == 0 {
							continue // unassigned, as a retired chain's nodes are
						}
						assigns[ci][n] = placer.Assign{Platform: platforms[rng.Intn(len(platforms))]}
					}
				}
				for _, optimize := range []bool{true, false} {
					label := fmt.Sprintf("chains %v prep=%v trial %d optimize=%v", set, prepped, trial, optimize)
					want := placer.ReferenceSwitchTables(in, assigns, optimize)
					got := placer.BuildSwitchTables(in, assigns, optimize)
					if d := diffTables(got, want); d != "" {
						t.Fatalf("%s: %s", label, d)
					}
					for _, arenaCap := range []int{0, 1, 3} {
						tight := placer.BuildSwitchTablesTight(in, assigns, optimize, arenaCap)
						if d := diffTables(tight, want); d != "" {
							t.Fatalf("%s, arena of %d: %s", label, arenaCap, d)
						}
					}
					placer.BuildSwitchTables(in, assigns, !optimize)
					if d := diffTables(got, want); d != "" {
						t.Fatalf("%s: a later call reached into an earlier call's tables: %s", label, d)
					}
				}
			}
		}
	}
}
