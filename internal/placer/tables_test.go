package placer

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/nfgraph"
	"lemur/internal/pisa"
)

// TestStageCompaction reproduces the §5.2 stage-usage triple for the
// 10-NAT-on-switch placement of the extreme config: the optimized
// meta-compiler output fits the 12-stage pipeline exactly, the conservative
// static estimator predicts 14, and naive codegen (per-NF SI updates,
// serialized branches, dedicated encap/decap and merge guards) would need
// 27 stages.
func TestStageCompaction(t *testing.T) {
	in := input(t, hw.NewPaperTestbed(), extremeChain)
	res, err := Place(SchemeLemur, in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("infeasible: %s", res.Reason)
	}
	assigns := perChainAssigns(in, res.Assign)

	// Optimized: exactly 12 stages (asserted against the compiled result).
	opt := BuildSwitchTables(in, assigns, true)
	bin, err := pisa.Compile(in.Topo.Switch, opt)
	if err != nil {
		t.Fatalf("optimized program must fit: %v", err)
	}
	if bin.Stages != 12 {
		t.Errorf("optimized stages = %d, want 12", bin.Stages)
	}

	// Conservative estimator: switch tables (BPF + 10 NAT + Fwd = 12) plus
	// NSH encap/decap for the cross-platform chain = 14.
	nTables := 0
	for _, lt := range opt {
		if lt.Name != "steer_classify" {
			nTables++
		}
	}
	if nTables != 12 {
		t.Fatalf("switch NF tables = %d, want 12", nTables)
	}
	if est := pisa.ConservativeEstimate(nTables, true); est != 14 {
		t.Errorf("conservative estimate = %d, want 14", est)
	}

	// Naive codegen: 27 stages, far beyond the pipeline.
	naive := BuildSwitchTables(in, assigns, false)
	nbin, err := pisa.Compile(in.Topo.Switch, naive)
	if !errors.Is(err, pisa.ErrStageOverflow) {
		t.Fatalf("naive program should overflow, got %v", err)
	}
	if nbin.Stages != 27 {
		t.Errorf("naive stages = %d, want 27", nbin.Stages)
	}
}

// TestBuildSwitchTablesNaive covers the naive/optimized delta on a simple
// linear chain: naive inserts SI-update tables and explicit encap/decap.
func TestBuildSwitchTablesNaive(t *testing.T) {
	in := input(t, hw.NewPaperTestbed(), simpleChain)
	res, err := Place(SchemeLemur, in)
	if err != nil || !res.Feasible {
		t.Fatalf("placement: %v %s", err, res.Reason)
	}
	assigns := perChainAssigns(in, res.Assign)
	opt := BuildSwitchTables(in, assigns, true)
	naive := BuildSwitchTables(in, assigns, false)
	if len(naive) <= len(opt) {
		t.Errorf("naive emitted %d tables, optimized %d — naive must be larger", len(naive), len(opt))
	}
	// The optimized variant for acl->enc(server)->fwd: steer + acl + fwd.
	if len(opt) != 3 {
		t.Errorf("optimized tables = %d, want 3", len(opt))
	}
	// Naive adds per-NF SI tables and the encap/decap pair.
	if len(naive) != 7 {
		t.Errorf("naive tables = %d, want 7 (steer, acl, acl_si, fwd, fwd_si, encap, decap)", len(naive))
	}
}

// TestSwitchOnlyChainSkipsNSH checks §4.2 optimization (a): a chain placed
// entirely on the switch generates no encap/decap tables even in naive
// mode's accounting of cross-platform overhead.
func TestSwitchOnlyChainSkipsNSH(t *testing.T) {
	src := `
chain swonly {
  slo { tmin = 1Gbps  tmax = 100Gbps }
  t0 = Tunnel()
  f0 = IPv4Fwd()
  t0 -> f0
}`
	in := input(t, hw.NewPaperTestbed(), src)
	res, err := Place(SchemeLemur, in)
	if err != nil || !res.Feasible {
		t.Fatalf("placement: %v", err)
	}
	for n, a := range res.Assign {
		if a.Platform != hw.PISA {
			t.Fatalf("%s not on switch", n.Name())
		}
	}
	naive := BuildSwitchTables(in, perChainAssigns(in, res.Assign), false)
	for _, lt := range naive {
		if lt.Name == "c0_nsh_encap" || lt.Name == "c0_nsh_decap" {
			t.Errorf("switch-only chain emitted NSH table %s", lt.Name)
		}
	}
}

// perChainAssigns splits a global assignment map into per-chain maps in
// chain order (each node belongs to exactly one chain graph).
func perChainAssigns(in *Input, assign map[*nfgraph.Node]Assign) []map[*nfgraph.Node]Assign {
	out := make([]map[*nfgraph.Node]Assign, len(in.Chains))
	for i, g := range in.Chains {
		m := make(map[*nfgraph.Node]Assign, len(g.Order))
		for _, n := range g.Order {
			if a, ok := assign[n]; ok {
				m[n] = a
			}
		}
		out[i] = m
	}
	return out
}

// referenceSwitchTables is BuildSwitchTables as it was before the lowering
// wrote into an arena: every dependency list a heap slice of its own, the
// assignment read from per-chain maps. Kept as the oracle for
// TestSwitchTablesMatchReference.
func referenceSwitchTables(in *Input, assigns []map[*nfgraph.Node]Assign, optimize bool) []pisa.LogicalTable {
	var names [][]string
	var base []int
	var tables []pisa.LogicalTable
	if p := in.prep; p != nil && slices.Equal(p.chains, in.Chains) {
		names, base = p.pisaNames, p.base
	}
	add := func(t pisa.LogicalTable) int {
		tables = append(tables, t)
		return len(tables) - 1
	}
	steer := add(pisa.LogicalTable{Name: "steer_classify", SRAM: 1, TCAM: 1})

	for ci, g := range in.Chains {
		assign := assigns[ci]
		crossPlatform := false
		for _, n := range g.Order {
			if a, ok := assign[n]; ok && a.Platform != hw.PISA {
				crossPlatform = true
				break
			}
		}

		lastTables := make([][]int, len(g.Order))
		var prevSibling int = -1
		for _, n := range g.Order {
			var deps []int
			addDep := func(idx int) {
				if idx < 0 {
					return
				}
				for _, d := range deps {
					if d == idx {
						return
					}
				}
				deps = append(deps, idx)
			}
			if len(n.Ins) == 0 && !optimize {
				addDep(steer)
			}
			for _, pred := range n.Ins {
				for _, d := range lastTables[pred.Seq] {
					addDep(d)
				}
			}

			a, onSwitch := assign[n]
			if !onSwitch || a.Platform != hw.PISA {
				lastTables[n.Seq] = deps
				continue
			}

			prof := n.Meta.PISA
			if prof == nil {
				lastTables[n.Seq] = deps
				continue
			}
			if !optimize && n.IsMerge() {
				guard := add(pisa.LogicalTable{Name: fmt.Sprintf("c%d_%s_guard", ci, n.Name()), SRAM: 1, Deps: deps})
				deps = []int{guard}
			}
			if !optimize && prevSibling >= 0 && len(n.Ins) == 1 && n.Ins[0].IsBranch() {
				deps = append(deps, prevSibling)
			}
			var nn []string
			if names != nil {
				nn = names[base[ci]+n.Seq]
			}
			var last int
			for t := 0; t < prof.Tables; t++ {
				var name string
				if t < len(nn) {
					name = nn[t]
				} else {
					name = fmt.Sprintf("c%d_%s_t%d", ci, n.Name(), t)
				}
				idx := add(pisa.LogicalTable{
					Name: name,
					SRAM: prof.SRAM, TCAM: prof.TCAM,
					Deps: deps,
				})
				deps = []int{idx}
				last = idx
			}
			if !optimize {
				si := add(pisa.LogicalTable{Name: fmt.Sprintf("c%d_%s_si", ci, n.Name()), SRAM: 1, Deps: []int{last}})
				last = si
			}
			if len(n.Ins) == 1 && n.Ins[0].IsBranch() {
				prevSibling = last
			}
			lastTables[n.Seq] = []int{last}
		}

		if !optimize && crossPlatform {
			var tails []int
			for _, n := range g.Order {
				if len(n.Outs) == 0 {
					tails = append(tails, lastTables[n.Seq]...)
				}
			}
			enc := add(pisa.LogicalTable{Name: fmt.Sprintf("c%d_nsh_encap", ci), SRAM: 1, Deps: []int{steer}})
			add(pisa.LogicalTable{Name: fmt.Sprintf("c%d_nsh_decap", ci), SRAM: 1, Deps: append(tails, enc)})
		}
	}
	return tables
}
