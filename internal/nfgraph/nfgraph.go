// Package nfgraph builds the meta-compiler's intermediate representation
// (§4): a DAG of NF nodes with branch filters and traffic-split weights,
// plus the analyses the Placer and code generators need — topological order,
// branch/merge detection, per-node traffic fractions, and the decomposition
// of branched chains into weighted linear paths (§3.2).
package nfgraph

import (
	"errors"
	"fmt"

	"lemur/internal/nf"
	"lemur/internal/nfspec"
)

// EdgeTo is one outgoing edge.
type EdgeTo struct {
	Node   *Node
	Weight float64 // traffic fraction of the source node's traffic
	Filter string  // optional bpf expression selecting this branch
}

// Node is one NF instance in the graph.
type Node struct {
	Inst   *nfspec.Instance
	Meta   *nf.Meta
	Outs   []EdgeTo
	Ins    []*Node
	Weight float64 // fraction of the chain's traffic that traverses this node

	// Seq is the node's position in Graph.Order, fixed at Build. Consumers
	// index dense per-node scratch with it instead of node-keyed maps.
	Seq int
}

// Name returns the instance name.
func (n *Node) Name() string { return n.Inst.Name }

// Class returns the NF class.
func (n *Node) Class() string { return n.Inst.Class }

// IsBranch reports whether traffic splits after this node.
func (n *Node) IsBranch() bool { return len(n.Outs) > 1 }

// IsMerge reports whether multiple branches rejoin at this node.
func (n *Node) IsMerge() bool { return len(n.Ins) > 1 }

// Graph is the IR for one chain.
type Graph struct {
	Chain *nfspec.Chain
	Nodes map[string]*Node
	Order []*Node // topological order
	Root  *Node
}

// Graph construction errors.
var (
	errCycle         = errors.New("nfgraph: chain graph has a cycle")
	errMultipleRoots = errors.New("nfgraph: chain graph has multiple entry nodes")
	errNoRoot        = errors.New("nfgraph: chain graph has no entry node")
)

// Build validates the chain spec into a Graph: single entry, acyclic, fully
// reachable, branch weights normalized (unspecified weights split the
// remaining fraction evenly), and per-node traffic fractions computed.
func Build(chain *nfspec.Chain) (*Graph, error) {
	g := &Graph{Chain: chain, Nodes: make(map[string]*Node, len(chain.NFs))}
	for i := range chain.NFs {
		inst := &chain.NFs[i]
		g.Nodes[inst.Name] = &Node{Inst: inst, Meta: nf.Registry[inst.Class]}
	}
	for _, e := range chain.Edges {
		from, to := g.Nodes[e.From], g.Nodes[e.To]
		from.Outs = append(from.Outs, EdgeTo{Node: to, Weight: e.Weight, Filter: e.Filter})
		to.Ins = append(to.Ins, from)
	}

	// Entry node: in-degree zero.
	for _, name := range instanceOrder(chain) {
		n := g.Nodes[name]
		if len(n.Ins) == 0 {
			if g.Root != nil {
				return nil, fmt.Errorf("%w: %q and %q", errMultipleRoots, g.Root.Name(), n.Name())
			}
			g.Root = n
		}
	}
	if g.Root == nil {
		return nil, errNoRoot
	}

	// Normalize branch weights.
	for _, name := range instanceOrder(chain) {
		n := g.Nodes[name]
		if len(n.Outs) == 0 {
			continue
		}
		var set float64
		unset := 0
		for _, e := range n.Outs {
			if e.Weight == 0 {
				unset++
			} else {
				set += e.Weight
			}
		}
		if set > 1+1e-9 {
			return nil, fmt.Errorf("nfgraph: %s: branch weights sum to %v > 1", n.Name(), set)
		}
		if unset > 0 {
			rem := (1 - set) / float64(unset)
			for i := range n.Outs {
				if n.Outs[i].Weight == 0 {
					n.Outs[i].Weight = rem
				}
			}
		} else if set < 1-1e-9 {
			return nil, fmt.Errorf("nfgraph: %s: branch weights sum to %v < 1", n.Name(), set)
		}
	}

	// Topological sort (Kahn), cycle and reachability checks.
	indeg := make(map[*Node]int, len(g.Nodes))
	for _, n := range g.Nodes {
		indeg[n] = len(n.Ins)
	}
	queue := []*Node{g.Root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		n.Seq = len(g.Order)
		g.Order = append(g.Order, n)
		for _, e := range n.Outs {
			indeg[e.Node]--
			if indeg[e.Node] == 0 {
				queue = append(queue, e.Node)
			}
		}
	}
	if len(g.Order) != len(g.Nodes) {
		// Distinguish cycle from disconnection: disconnected nodes have
		// in-degree zero but are not the root — those were caught as
		// multiple roots above, so remaining misses mean a cycle.
		return nil, errCycle
	}

	// Node traffic fractions by forward propagation.
	g.Root.Weight = 1
	for _, n := range g.Order {
		for _, e := range n.Outs {
			e.Node.Weight += n.Weight * e.Weight
		}
	}
	return g, nil
}

// instanceOrder yields instance names in declaration order for deterministic
// iteration.
func instanceOrder(chain *nfspec.Chain) []string {
	names := make([]string, len(chain.NFs))
	for i := range chain.NFs {
		names[i] = chain.NFs[i].Name
	}
	return names
}

// Path is one linearized root-to-leaf walk.
type Path []*Node

// Paths decomposes the DAG into linear chains (§3.2's branch handling):
// every root-to-leaf walk. A graph without nodes has none.
func (g *Graph) Paths() []Path {
	var out []Path
	if g.Root == nil {
		return nil
	}
	var walk func(n *Node, prefix []*Node)
	walk = func(n *Node, prefix []*Node) {
		prefix = append(prefix, n)
		if len(n.Outs) == 0 {
			cp := make(Path, len(prefix))
			copy(cp, prefix)
			out = append(out, cp)
			return
		}
		for _, e := range n.Outs {
			walk(e.Node, prefix)
		}
	}
	walk(g.Root, nil)
	return out
}
