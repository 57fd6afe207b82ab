package placer

import (
	"fmt"
	"slices"

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
// §5.2. The returned tables are the caller's: they share no memory with the
// input or with an earlier call.
func BuildSwitchTables(in *Input, assigns []map[*nfgraph.Node]Assign, optimize bool) []pisa.LogicalTable {
	dense, base := denseAssigns(in, assigns)
	return new(tableBuf).lower(in, dense, base, optimize)
}

// denseAssigns flattens per-chain assignment maps into the dense form lower
// reads: node n of chain ci at base[ci]+n.Seq, unassigned when the map has
// no entry for it.
func denseAssigns(in *Input, assigns []map[*nfgraph.Node]Assign) (dense []Assign, base []int) {
	base = make([]int, len(in.Chains))
	for ci, g := range in.Chains {
		base[ci] = len(dense)
		for _, n := range g.Order {
			a, ok := assigns[ci][n]
			if !ok {
				a.Platform = unassigned
			}
			dense = append(dense, a)
		}
	}
	return dense, base
}

// tableBuf is the memory one lowering writes and the next one on the same
// buffer overwrites: the table list, the arena every dependency list is a
// capped sub-slice of, and the lists the nodes of the chain being lowered
// hand to their successors.
type tableBuf struct {
	tables []pisa.LogicalTable
	arena  []int
	last   [][]int // by Node.Seq, reused chain after chain
}

// reserve makes room for n more ints at the arena's tail. A list must be
// reserved whole before its first int is written: when the arena is full the
// room comes from a new block, and the lists carved so far keep the old one.
func (b *tableBuf) reserve(n int) {
	if len(b.arena)+n > cap(b.arena) {
		b.arena = make([]int, 0, max(2*cap(b.arena), n))
	}
}

// dep appends idx to the list under construction at arena[from:] unless it is
// already there. Dep lists are tiny (fan-in plus carried tables), so dedup is
// a linear scan.
func (b *tableBuf) dep(from, idx int) {
	for _, d := range b.arena[from:] {
		if d == idx {
			return
		}
	}
	b.arena = append(b.arena, idx)
}

// seal closes the list at arena[from:]: capped, so that nothing appended to
// it can reach the next list, and nil when empty.
func (b *tableBuf) seal(from int) []int {
	if from == len(b.arena) {
		return nil
	}
	return b.arena[from:len(b.arena):len(b.arena)]
}

// one is the single-entry list {idx}.
func (b *tableBuf) one(idx int) []int {
	b.reserve(1)
	b.arena = append(b.arena, idx)
	return b.seal(len(b.arena) - 1)
}

func (b *tableBuf) add(t pisa.LogicalTable) int {
	b.tables = append(b.tables, t)
	return len(b.tables) - 1
}

// lower is the one lowering body, behind BuildSwitchTables and the stage
// check alike. assign is the dense assignment, node n of chain ci at
// base[ci]+n.Seq, unassigned for a node without one. The tables it returns
// live in b until the next lower on b.
func (b *tableBuf) lower(in *Input, assign []Assign, base []int, optimize bool) []pisa.LogicalTable {
	// The prep (when it matches this chain set) carries precomputed table
	// names and size bounds, so the optimized path — run once per candidate
	// placement — allocates no strings and, on a buffer that has been through
	// one call on the chain set, nothing at all.
	var ents []*chainEntry // by slot
	if p := in.prep; p != nil && slices.Equal(p.chains, in.Chains) {
		ents = p.ents
		b.tables, b.arena = room(b.tables, p.maxTables), room(b.arena, p.maxDeps)
	}
	b.tables, b.arena = b.tables[:0], b.arena[:0]
	steer := b.add(pisa.LogicalTable{Name: "steer_classify", SRAM: 1, TCAM: 1})

	for ci, g := range in.Chains {
		at := assign[base[ci]:] // by Node.Seq
		crossPlatform := false
		for _, n := range g.Order {
			if p := at[n.Seq].Platform; p != unassigned && p != hw.PISA {
				crossPlatform = true
				break
			}
		}

		// lastTables[n.Seq] = indices of the tables that must precede the
		// tables of node n's successors, propagated through non-switch nodes.
		if cap(b.last) < len(g.Order) {
			b.last = make([][]int, len(g.Order))
		}
		lastTables := b.last[:len(g.Order)]
		clear(lastTables)
		var prevSibling int = -1
		for _, n := range g.Order {
			// Gather dependencies from predecessors: at most every carried
			// list in full, plus steering and a sibling in naive codegen.
			room := 2
			for _, pred := range n.Ins {
				room += len(lastTables[pred.Seq])
			}
			b.reserve(room)
			from := len(b.arena)
			if len(n.Ins) == 0 && !optimize {
				// Naive codegen serializes classification before the first
				// NF; optimization (c) folds steering into the first stage,
				// so optimized entry tables carry no dependency on it.
				b.dep(from, steer)
			}
			for _, pred := range n.Ins {
				for _, d := range lastTables[pred.Seq] {
					b.dep(from, d)
				}
			}

			prof := n.Meta.PISA
			if at[n.Seq].Platform != hw.PISA || prof == nil {
				// Not a switch node: dependencies pass through.
				lastTables[n.Seq] = b.seal(from)
				continue
			}
			if !optimize && n.IsMerge() {
				// Naive codegen re-checks merges with a guard table.
				guard := b.add(pisa.LogicalTable{Name: fmt.Sprintf("c%d_%s_guard", ci, n.Name()), SRAM: 1, Deps: b.seal(from)})
				b.reserve(2)
				from = len(b.arena)
				b.arena = append(b.arena, guard)
			}
			if !optimize && prevSibling >= 0 && len(n.Ins) == 1 && n.Ins[0].IsBranch() {
				// Naive codegen serializes sibling branches.
				b.arena = append(b.arena, prevSibling)
			}
			deps := b.seal(from)
			var nn []string
			if ents != nil {
				nn = ents[ci].names[n.Seq]
			}
			var last int
			for t := 0; t < prof.Tables; t++ {
				var name string
				if t < len(nn) {
					name = nn[t]
				} else {
					name = fmt.Sprintf("c%d_%s_t%d", ci, n.Name(), t)
				}
				last = b.add(pisa.LogicalTable{
					Name: name,
					SRAM: prof.SRAM, TCAM: prof.TCAM,
					Deps: deps,
				})
				deps = b.one(last)
			}
			if !optimize {
				// Naive: explicit SI-update table after every NF.
				last = b.add(pisa.LogicalTable{Name: fmt.Sprintf("c%d_%s_si", ci, n.Name()), SRAM: 1, Deps: b.one(last)})
			}
			if len(n.Ins) == 1 && n.Ins[0].IsBranch() {
				prevSibling = last
			}
			lastTables[n.Seq] = b.one(last)
		}

		if !optimize && crossPlatform {
			// Naive: dedicated encap and decap tables at the chain edges.
			enc := b.add(pisa.LogicalTable{Name: fmt.Sprintf("c%d_nsh_encap", ci), SRAM: 1, Deps: b.one(steer)})
			room := 1
			for _, n := range g.Order {
				if len(n.Outs) == 0 {
					room += len(lastTables[n.Seq])
				}
			}
			b.reserve(room)
			from := len(b.arena)
			for _, n := range g.Order {
				if len(n.Outs) == 0 {
					b.arena = append(b.arena, lastTables[n.Seq]...)
				}
			}
			b.arena = append(b.arena, enc)
			b.add(pisa.LogicalTable{Name: fmt.Sprintf("c%d_nsh_decap", ci), SRAM: 1, Deps: b.seal(from)})
		}
	}
	return b.tables
}

// stageCheck lowers the placement's switch program and records the stage
// count. It returns false with a reason when the program does not fit. The
// verdict comes from the shared content-keyed compile cache: across schemes,
// coalescing variants and δ points the same program recurs constantly, and
// δ never changes it. The lowering writes into the scratch's table buffer and
// the key into its key buffer, and a cached verdict's reason is the error's
// own string, so on a warm cache the check leaves nothing on the heap
// (DESIGN.md, "Who owns a candidate's tables").
func (ev *evalScratch) stageCheck() (string, bool) {
	tables := ev.tables.lower(ev.in, ev.assign, ev.p.base, true)
	stages, err := pisa.SharedCache().Stages(ev.in.Topo.Switch, tables, &ev.compileKey)
	ev.res.Stages = stages
	if err != nil {
		mStageCheckFail.Inc()
		return err.Error(), false
	}
	mStageCheckOK.Inc()
	return "", true
}
