package placer

import (
	"lemur/internal/hw"
	"lemur/internal/nfgraph"
)

// computeSubgroups derives the run-to-completion subgroups of one chain
// under an assignment: maximal runs of server-assigned nodes connected
// 1-in/1-out. A branch or merge node may sit inside a run but makes the
// subgroup non-replicable (§3.2); it also ends (branch) or starts (merge)
// the run so traffic weights stay uniform within a subgroup.
func computeSubgroups(in *Input, chainIdx int, g *nfgraph.Graph, assign map[*nfgraph.Node]Assign) []*Subgroup {
	return computeSubgroupsSplit(in, chainIdx, g, assign, nil)
}

// computeSubgroupsSplit is computeSubgroups with explicit break marks:
// a marked node starts a new subgroup even mid-run.
func computeSubgroupsSplit(in *Input, chainIdx int, g *nfgraph.Graph, assign map[*nfgraph.Node]Assign, breaks map[*nfgraph.Node]bool) []*Subgroup {
	return new(subgroupSlab).split(in, chainIdx, g, assign, breaks)
}

// subgroupSlab is the memory subgroup lists are carved from: the Subgroups,
// their node lists (capped sub-slices of one block) and the pointer lists
// handed out. A chain template derives both its variants on one slab; a list
// stays valid for as long as anything points into it, because a slab that
// runs out takes a new block and leaves the old one to its lists.
type subgroupSlab struct {
	subs  []Subgroup
	nodes []*nfgraph.Node
	ptrs  []*Subgroup
	inSub []bool // by Node.Seq
}

// reserve makes room for one more list over n server nodes: at most n
// subgroups, n nodes in them, n pointers to them.
func (s *subgroupSlab) reserve(n int) {
	if len(s.subs)+n > cap(s.subs) {
		s.subs = make([]Subgroup, 0, n)
		s.nodes = make([]*nfgraph.Node, 0, n)
		s.ptrs = make([]*Subgroup, 0, n)
	}
}

// split is the one subgroup derivation, behind computeSubgroupsSplit and the
// chain templates.
func (s *subgroupSlab) split(in *Input, chainIdx int, g *nfgraph.Graph, assign map[*nfgraph.Node]Assign, breaks map[*nfgraph.Node]bool) []*Subgroup {
	onServer := 0
	for _, n := range g.Order {
		if a, ok := assign[n]; ok && a.Platform == hw.Server {
			onServer++
		}
	}
	if onServer == 0 {
		return nil
	}
	s.reserve(onServer)
	if cap(s.inSub) < len(g.Order) {
		s.inSub = make([]bool, len(g.Order))
	}
	inSub := s.inSub[:len(g.Order)]
	clear(inSub)
	first := len(s.ptrs)

	overhead := in.Topo.EncapCycles + in.Topo.DemuxCycles

	for _, n := range g.Order {
		a, ok := assign[n]
		if !ok || a.Platform != hw.Server || inSub[n.Seq] {
			continue
		}
		s.subs = append(s.subs, Subgroup{ChainIdx: chainIdx, Server: a.Device, Weight: n.Weight, Replicable: true})
		sg := &s.subs[len(s.subs)-1]
		from := len(s.nodes)
		cur := n
		for {
			inSub[cur.Seq] = true
			s.nodes = append(s.nodes, cur)
			sg.Cycles += in.nodeCycles(chainIdx, cur)
			if !cur.Meta.Replicable || cur.IsBranch() || cur.IsMerge() {
				sg.Replicable = false
			}
			// Extend along a linear server run: exactly one out edge, the
			// successor is on the same server, unvisited, not a merge, not
			// explicitly split off, and the current node is not a branch.
			if cur.IsBranch() || len(cur.Outs) != 1 {
				break
			}
			next := cur.Outs[0].Node
			na, ok := assign[next]
			if !ok || na.Platform != hw.Server || na.Device != a.Device || inSub[next.Seq] ||
				next.IsMerge() || breaks[next] {
				break
			}
			cur = next
		}
		sg.Nodes = s.nodes[from:len(s.nodes):len(s.nodes)]
		sg.Cycles += overhead
		s.ptrs = append(s.ptrs, sg)
	}
	return s.ptrs[first:len(s.ptrs):len(s.ptrs)]
}

// nodeReplicable reports whether one node can replicate across cores on its
// own: a per-flow-safe NF that is neither a branch nor a merge point. Both
// splitBreaks and the branch-and-bound rate bound segment non-replicable
// subgroups with it, which is what makes the bound admissible for the split
// variant.
func nodeReplicable(n *nfgraph.Node) bool {
	return n.Meta.Replicable && !n.IsBranch() && !n.IsMerge()
}

// splitMarks proposes break marks isolating non-replicable NFs from
// replicable neighbours within each server run of one chain's unsplit
// subgroups, so the scalable parts can take extra cores. The extra subgroup
// boundary costs a switch bounce and a core, which the LP and allocation
// account for.
func splitMarks(subs []*Subgroup) []*nfgraph.Node {
	var marks []*nfgraph.Node // usually stays nil
	for _, sg := range subs {
		if len(sg.Nodes) < 2 || sg.Replicable {
			continue
		}
		hasRepl := false
		for _, n := range sg.Nodes {
			if nodeReplicable(n) {
				hasRepl = true
			}
		}
		if !hasRepl {
			continue // nothing to rescue
		}
		for i := 1; i < len(sg.Nodes); i++ {
			if nodeReplicable(sg.Nodes[i]) != nodeReplicable(sg.Nodes[i-1]) {
				marks = append(marks, sg.Nodes[i])
			}
		}
	}
	return marks
}

// splitBreaks returns base plus the given chains' split marks under a
// whole-input assignment, as a Result.Breaks map — or nil when those chains
// have no marks. base is not written.
func splitBreaks(in *Input, assign map[*nfgraph.Node]Assign, chains []int, base map[*nfgraph.Node]bool) map[*nfgraph.Node]bool {
	var breaks map[*nfgraph.Node]bool
	for _, ci := range chains {
		for _, n := range splitMarks(computeSubgroups(in, ci, in.Chains[ci], assign)) {
			if breaks == nil {
				breaks = make(map[*nfgraph.Node]bool, len(base)+1)
				for b := range base {
					breaks[b] = true
				}
			}
			breaks[n] = true
		}
	}
	return breaks
}

// computeNICUses collects SmartNIC-assigned nodes.
func computeNICUses(in *Input, chainIdx int, g *nfgraph.Graph, assign map[*nfgraph.Node]Assign) []*NICUse {
	var uses []*NICUse
	for _, n := range g.Order {
		if a, ok := assign[n]; ok && a.Platform == hw.SmartNIC {
			uses = append(uses, &NICUse{
				ChainIdx: chainIdx,
				Node:     n,
				Device:   a.Device,
				Weight:   n.Weight,
				Cycles:   in.rawWorstCycles(chainIdx, n),
			})
		}
	}
	return uses
}

// Bounces counts platform transitions along every linear path of a chain
// under an assignment — the Minimum Bounce baseline's objective, also
// reported by the latency experiments. The ToR is the implicit start and
// end, so a path beginning or ending off-switch also pays a transition.
func Bounces(g *nfgraph.Graph, assign map[*nfgraph.Node]Assign) int {
	return bounceCountPaths(g.Paths(), assign)
}

// bounceCountPaths is Bounces over pre-expanded paths.
func bounceCountPaths(paths []nfgraph.Path, assign map[*nfgraph.Node]Assign) int {
	total := 0
	for _, path := range paths {
		prev := Assign{Platform: hw.PISA} // traffic enters via the ToR
		for _, n := range path {
			if a := assign[n]; a.HopFrom(prev) {
				total++
				prev = a
			}
		}
		if prev.Platform != hw.PISA {
			total++ // return to the ToR for egress
		}
	}
	return total
}
