package placer_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lemur/internal/experiments"
	"lemur/internal/hw"
	"lemur/internal/nfgraph"
	"lemur/internal/nfspec"
	"lemur/internal/placer"
	"lemur/internal/profile"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/placements.golden")

// The golden matrix: the placement-scale study's chain sets x the delta
// points where placements go from roomy to tight x two fleet sizes, placed
// by the six evaluation schemes and the three ablations (goldenSchemes). testdata/placements.golden holds the canonical
// rendering of every cell; it is the byte-identity licence for work on the
// placer's internals — a change that moves a placement, a reason or a
// search count shows up as a diff of that file.
var (
	goldenSets   = [][]int{{1, 2}, {1, 2, 3}, {1, 2, 3, 4}, {2, 2, 3, 3}, {1, 1, 2, 2}}
	goldenDeltas = []float64{0.5, 1.0, 1.5}
	goldenFleets = []int{4, 16}
)

const goldenPath = "testdata/placements.golden"

// goldenSchemes is Schemes() plus the Figure 2f ablations, which no
// evaluation list names but the figure runs.
func goldenSchemes() []placer.Scheme {
	return append(placer.Schemes(), placer.SchemeNoProfiling, placer.SchemeNoCoreAlloc, placer.SchemeNoCoalesce)
}

// goldenCell is one (fleet, chain set, delta) input of the matrix.
type goldenCell struct {
	desc string
	in   *placer.Input
}

// goldenCells builds fresh inputs for the whole matrix (fresh graphs, so no
// run inherits another's per-input memo).
func goldenCells(t testing.TB, parallel int) []goldenCell {
	t.Helper()
	db := profile.DefaultDB()
	var cells []goldenCell
	for _, servers := range goldenFleets {
		topo := hw.NewPaperTestbed(hw.WithServers(servers))
		for _, set := range goldenSets {
			bases, err := experiments.BaseRates(set, topo, db)
			if err != nil {
				t.Fatal(err)
			}
			for _, delta := range goldenDeltas {
				var graphs []*nfgraph.Graph
				for i, idx := range set {
					// One parse per chain: a set may hold a chain twice.
					src, err := experiments.ChainSpec(idx, delta*bases[i], hw.Gbps(100), 0)
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
						graphs = append(graphs, g)
					}
				}
				cells = append(cells, goldenCell{
					desc: fmt.Sprintf("servers=%d chains=%v delta=%.1f", servers, set, delta),
					in: &placer.Input{Chains: graphs, Topo: topo, DB: db, Restrict: experiments.EvalRestrict,
						BruteForceBudget: 2000, Parallel: parallel},
				})
			}
		}
	}
	return cells
}

// renderPlacement is the canonical rendering of one Result: every decision
// and every number, floats in shortest round-trip form, everything in the
// Result's own order (subgroup and NIC-use order is part of the contract).
func renderPlacement(in *placer.Input, res *placer.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "feasible=%v reason=%q stages=%d marginal=%v aggregate=%v truncated=%v skipped=%d\n",
		res.Feasible, res.Reason, res.Stages, res.Marginal, res.PredictedAggregate, res.Truncated, res.SkippedCombos)
	if st := res.Search; st != nil {
		fmt.Fprintf(&b, "search combinations=%v evaluated=%d bind_rejected=%d pruned=%d demand_pruned=%d collapsed=%d incumbent_updates=%d\n",
			st.Combinations, st.Evaluated, st.BindRejected, st.PrunedSubtrees, st.DemandPruned,
			st.CollapsedSubtrees, st.IncumbentUpdates)
	}
	fmt.Fprintf(&b, "rates=%v p99=%v assigned=%d breaks=%d\n",
		res.ChainRates, res.PredictedP99Sec, len(res.Assign), len(res.Breaks))
	for ci, g := range in.Chains {
		for _, n := range g.Order {
			if a, ok := res.Assign[n]; ok {
				fmt.Fprintf(&b, "assign c%d/%s=%v@%s", ci, n.Name(), a.Platform, a.Device)
				if res.Breaks[n] {
					b.WriteString(" break")
				}
				b.WriteByte('\n')
			}
		}
	}
	for _, sg := range res.Subgroups {
		fmt.Fprintf(&b, "sub %s server=%s cores=%d weight=%v cycles=%v replicable=%v nodes=%d\n",
			sg.Name(), sg.Server, sg.Cores, sg.Weight, sg.Cycles, sg.Replicable, len(sg.Nodes))
	}
	for _, u := range res.NICUses {
		fmt.Fprintf(&b, "nic c%d/%s device=%s weight=%v cycles=%v\n",
			u.ChainIdx, u.Node.Name(), u.Device, u.Weight, u.Cycles)
	}
	return b.String()
}

// renderMatrix places every cell with every scheme at the given worker
// count and renders the lot.
func renderMatrix(t testing.TB, parallel int) string {
	t.Helper()
	var b strings.Builder
	for _, c := range goldenCells(t, parallel) {
		for _, s := range goldenSchemes() {
			res, err := placer.Place(s, c.in)
			if err != nil {
				t.Fatalf("%s %s: %v", c.desc, s, err)
			}
			fmt.Fprintf(&b, "== %s scheme=%s\n%s", c.desc, s, renderPlacement(c.in, res))
		}
	}
	return b.String()
}

// firstDiff names the first line where two renderings part.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	header := ""
	for i := 0; i < len(w) && i < len(g); i++ {
		if strings.HasPrefix(w[i], "== ") {
			header = w[i]
		}
		if w[i] != g[i] {
			return fmt.Sprintf("line %d under %q:\n want %s\n  got %s", i+1, header, w[i], g[i])
		}
	}
	return fmt.Sprintf("lengths differ: want %d lines, got %d", len(w), len(g))
}

// TestGoldenPlacements: the matrix renders to the committed golden file,
// byte for byte, at every worker count. Regenerate with -update only for an
// intended change of placement behaviour.
func TestGoldenPlacements(t *testing.T) {
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(renderMatrix(t, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 3, 4, 8} {
		if got := renderMatrix(t, parallel); got != string(want) {
			t.Fatalf("Parallel=%d differs from %s: %s", parallel, goldenPath, firstDiff(string(want), got))
		}
	}
}
