package placer

import (
	"fmt"

	"lemur/internal/hw"
	"lemur/internal/nfgraph"
	"lemur/internal/pisa"
)

// BuildSwitchTables lowers the switch-resident part of a placement to the
// logical table list handed to the PISA compiler. With optimize=true it
// models the meta-compiler's §4.2 dependency-elimination:
//
//	(a/b) NSH encap/decap and SI updates fold into neighbouring tables —
//	      no extra tables, no extra dependencies;
//	(c)   steering/classification is one shared first-stage table;
//	(d)   parallel branches carry no mutual dependencies, so the compiler
//	      may pack them into shared stages.
//
// With optimize=false it models naive topological-order codegen: a separate
// SI-update table after every NF table, explicit encap/decap tables for
// cross-platform chains, and serialized branches — the 27-stage variant of
// §5.2.
func BuildSwitchTables(in *Input, assigns []map[*nfgraph.Node]Assign, optimize bool) []pisa.LogicalTable {
	// The prep (when it matches this chain set) carries precomputed table
	// names and a size bound, so the optimized path — run once per
	// candidate placement — allocates no strings.
	var names map[*nfgraph.Node][]string
	var tables []pisa.LogicalTable
	if p := in.prep; p != nil && sameChains(p.chains, in.Chains) {
		names = p.pisaNames
		tables = make([]pisa.LogicalTable, 0, p.maxTables)
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

		// lastTables[n.Seq] = indices of the tables that must precede node
		// n's table, propagated through non-switch nodes.
		lastTables := make([][]int, len(g.Order))
		var prevSibling int = -1
		for _, n := range g.Order {
			// Gather dependencies from predecessors. Dep lists are tiny
			// (fan-in plus carried tables), so dedup by linear scan.
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
				// Naive codegen serializes classification before the first
				// NF; optimization (c) folds steering into the first stage,
				// so optimized entry tables carry no dependency on it.
				addDep(steer)
			}
			for _, pred := range n.Ins {
				for _, d := range lastTables[pred.Seq] {
					addDep(d)
				}
			}

			a, onSwitch := assign[n]
			if !onSwitch || a.Platform != hw.PISA {
				// Not a switch node: dependencies pass through.
				lastTables[n.Seq] = deps
				continue
			}

			prof := n.Meta.PISA
			if prof == nil {
				lastTables[n.Seq] = deps
				continue
			}
			if !optimize && n.IsMerge() {
				// Naive codegen re-checks merges with a guard table.
				guard := add(pisa.LogicalTable{Name: fmt.Sprintf("c%d_%s_guard", ci, n.Name()), SRAM: 1, Deps: deps})
				deps = []int{guard}
			}
			if !optimize && prevSibling >= 0 && len(n.Ins) == 1 && n.Ins[0].IsBranch() {
				// Naive codegen serializes sibling branches.
				deps = append(deps, prevSibling)
			}
			var last int
			for t := 0; t < prof.Tables; t++ {
				var name string
				if nn := names[n]; t < len(nn) {
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
				// Naive: explicit SI-update table after every NF.
				si := add(pisa.LogicalTable{Name: fmt.Sprintf("c%d_%s_si", ci, n.Name()), SRAM: 1, Deps: []int{last}})
				last = si
			}
			if len(n.Ins) == 1 && n.Ins[0].IsBranch() {
				prevSibling = last
			}
			lastTables[n.Seq] = []int{last}
		}

		if !optimize && crossPlatform {
			// Naive: dedicated encap and decap tables at the chain edges.
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

// stageCheck compiles the placement's switch program and records the stage
// count. It returns false with a reason when the program does not fit.
// Verdicts are memoized at two levels: per input keyed by the switch-resident
// node set (skipping table construction entirely), and below that in the
// shared content-keyed compile cache (pisa.CompileCached) — across schemes,
// coalescing variants and δ points the same program recurs constantly, and δ
// never changes it. Table construction (optimized codegen) depends only on
// that set — node names, PISA profiles and graph structure are fixed per
// input — so ev.key is a complete key for the verdict.
func (ev *evalScratch) stageCheck() (string, bool) {
	memo := ev.p.stage
	memo.mu.Lock()
	v, ok := memo.m[string(ev.key)]
	memo.mu.Unlock()
	if ok {
		stageMemoHits.Add(1)
		mStageMemoHit.Inc()
	} else {
		// Compute outside the lock: verdicts are content-determined, so a
		// concurrent duplicate insert stores the same value.
		stageMemoMisses.Add(1)
		mStageMemoMiss.Inc()
		assign := ev.res.Assign
		if assign == nil {
			assign = ev.assignMap()
		}
		v = compileStages(ev.in, assign)
		memo.mu.Lock()
		memo.m[string(ev.key)] = v
		memo.mu.Unlock()
	}
	ev.res.Stages = v.stages
	if !v.ok {
		mStageCheckFail.Inc()
		return v.reason, false
	}
	mStageCheckOK.Inc()
	return "", true
}

// compileStages is the uncached stage check: lower to logical tables and run
// the PISA compiler.
func compileStages(in *Input, assign map[*nfgraph.Node]Assign) stageVerdict {
	// Chains' node sets are disjoint, so the global assignment map serves
	// as every chain's view — no per-chain map split on this hot path.
	assigns := make([]map[*nfgraph.Node]Assign, len(in.Chains))
	for i := range assigns {
		assigns[i] = assign
	}
	tables := BuildSwitchTables(in, assigns, true)
	bin, err := pisa.CompileCached(in.Topo.Switch, tables)
	v := stageVerdict{ok: err == nil}
	if bin != nil {
		v.stages = bin.Stages
	}
	if err != nil {
		v.reason = fmt.Sprintf("pisa: %v", err)
	}
	return v
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
