package bess

import (
	"cmp"
	"slices"
	"strconv"
	"strings"
)

// The paper (§A.1.3) uses BESS's hierarchical scheduler: a per-core tree of
// logical interior nodes (policies) and physical leaves (subgroup
// instances). The meta-compiler emits one round-robin root per core over the
// subgroups sharing it, with rate-limit nodes enforcing t_max. Cores hosting
// a chain with a latency deadline get an earliest-deadline-first root
// instead (Wang et al.): children ordered by per-chain slack — the chain's
// d_max minus the best-case delay accumulated upstream of the subgroup — so
// the subgroup closest to blowing its deadline is always served first.

// NodeKind classifies scheduler tree nodes.
type NodeKind int

// Scheduler node kinds.
const (
	RoundRobin NodeKind = iota
	RateLimit
	Leaf
	// Deadline is an earliest-deadline-first policy node: children are
	// ordered by ascending slack (most urgent first), deadline-free
	// children after all deadline-bearing ones.
	Deadline
)

// SchedNode is one node of a per-core scheduler tree.
type SchedNode struct {
	Kind     NodeKind
	RateBps  float64 // RateLimit only
	Subgroup *Subgroup
	Children []*SchedNode

	// SlackSec is the EDF priority of a child of a Deadline node: the
	// owning chain's d_max minus the best-case delay accumulated upstream
	// of this subgroup. Meaningful only when HasSlack is set.
	SlackSec float64
	// HasSlack marks a node whose subgroup belongs to a deadline-bearing
	// chain (zero is a valid slack, so presence needs its own bit).
	HasSlack bool

	rrNext int // round-robin cursor
}

// CoreScheduler is the tree for one core.
type CoreScheduler struct {
	Core int
	Root *SchedNode
}

// BuildSchedulers derives per-core scheduler trees from the pipeline's core
// shares: each used core gets a round-robin root over the subgroups sharing
// it; subgroups with a rate cap get a RateLimit interposed.
// rateCaps maps subgroup name -> bps cap (0/absent = uncapped).
func BuildSchedulers(pl *Pipeline, rateCaps map[string]float64) []CoreScheduler {
	return BuildSchedulersEDF(pl, rateCaps, nil)
}

// BuildSchedulersEDF is BuildSchedulers with per-subgroup deadline slack:
// slackSec maps subgroup name -> slack seconds (chain d_max minus best-case
// upstream delay; absent = the owning chain has no deadline). A core where
// at least one resident subgroup carries slack gets a Deadline root whose
// children are ordered by ascending slack (name as the tie-break), with
// deadline-free residents appended in name order. Cores with no
// deadline-bearing resident keep the round-robin tree verbatim, so a nil or
// empty slackSec reproduces BuildSchedulers exactly.
//
// The trees of one call share two arenas, one of nodes and one of child
// lists, so a pipeline's trees cost a handful of allocations however many
// subgroups it runs.
func BuildSchedulersEDF(pl *Pipeline, rateCaps, slackSec map[string]float64) []CoreScheduler {
	// One use per core share, in core order and pipeline order within a core.
	type use struct {
		core, seq int
		sg        *Subgroup
	}
	n := 0
	for _, sg := range pl.Subgroups() {
		n += len(sg.Shares)
	}
	if n == 0 {
		return nil
	}
	uses := make([]use, 0, n)
	for _, sg := range pl.Subgroups() {
		for _, s := range sg.Shares {
			uses = append(uses, use{s.Core, len(uses), sg})
		}
	}
	slices.SortFunc(uses, func(a, b use) int {
		if a.core != b.core {
			return cmp.Compare(a.core, b.core)
		}
		return cmp.Compare(a.seq, b.seq)
	})
	cores, capped := 0, 0
	for i, u := range uses {
		if i == 0 || u.core != uses[i-1].core {
			cores++
		}
		if c, ok := rateCaps[u.sg.Name]; ok && c > 0 {
			capped++
		}
	}
	// The arenas never grow past their capacity, so node pointers and
	// child lists stay valid.
	nodes := make([]SchedNode, 0, cores+n+capped)
	kids := make([]*SchedNode, 0, n+capped)
	add := func(nd SchedNode) *SchedNode {
		nodes = append(nodes, nd)
		return &nodes[len(nodes)-1]
	}
	out := make([]CoreScheduler, 0, cores)
	for i := 0; i < len(uses); {
		j := i + 1
		for j < len(uses) && uses[j].core == uses[i].core {
			j++
		}
		subs := uses[i:j]
		root := add(SchedNode{Kind: RoundRobin})
		for _, u := range subs {
			if _, ok := slackSec[u.sg.Name]; ok {
				root.Kind = Deadline
				break
			}
		}
		if root.Kind == Deadline {
			slices.SortStableFunc(subs, func(a, b use) int {
				sa, aok := slackSec[a.sg.Name]
				sb, bok := slackSec[b.sg.Name]
				switch {
				case aok != bok: // deadline-bearing first
					if aok {
						return -1
					}
					return 1
				case aok && sa != sb: // most urgent (least slack) first
					if sa < sb {
						return -1
					}
					return 1
				}
				return strings.Compare(a.sg.Name, b.sg.Name)
			})
		}
		at := len(kids)
		kids = kids[:at+len(subs)]
		root.Children = kids[at : at+len(subs) : at+len(subs)]
		for k, u := range subs {
			leaf := add(SchedNode{Kind: Leaf, Subgroup: u.sg})
			if s, ok := slackSec[u.sg.Name]; ok {
				leaf.SlackSec, leaf.HasSlack = s, true
			}
			child := leaf
			if cap, ok := rateCaps[u.sg.Name]; ok && cap > 0 {
				kids = append(kids, leaf)
				child = add(SchedNode{Kind: RateLimit, RateBps: cap, Children: kids[len(kids)-1 : len(kids) : len(kids)]})
				child.SlackSec, child.HasSlack = leaf.SlackSec, leaf.HasSlack
			}
			root.Children[k] = child
		}
		out = append(out, CoreScheduler{Core: uses[i].core, Root: root})
		i = j
	}
	return out
}

// NextLeaf advances the round-robin cursors and returns the next runnable
// subgroup leaf, or nil for an empty tree. A Deadline node is strict
// priority: it always descends into its most urgent (first) child — a real
// scheduler falls through to later children only when earlier ones are
// idle, a state this static tree does not track.
func (n *SchedNode) NextLeaf() *SchedNode {
	switch n.Kind {
	case Leaf:
		return n
	case RateLimit, Deadline:
		if len(n.Children) == 0 {
			return nil
		}
		return n.Children[0].NextLeaf()
	default: // RoundRobin
		if len(n.Children) == 0 {
			return nil
		}
		child := n.Children[n.rrNext%len(n.Children)]
		n.rrNext++
		return child.NextLeaf()
	}
}

// String renders the tree in tc-like indentation, matching what the
// generated BESS script describes.
func (cs CoreScheduler) String() string {
	var b strings.Builder
	cs.Render(&b)
	return b.String()
}

// Render appends String's rendering to b, for a caller assembling a larger
// text (the metacompiler's BESS script): nothing is formatted through fmt or
// built aside.
func (cs CoreScheduler) Render(b *strings.Builder) {
	var num [32]byte
	b.WriteString("core ")
	b.Write(strconv.AppendInt(num[:0], int64(cs.Core), 10))
	b.WriteString(":\n")
	cs.Root.render(b, 0)
}

func (n *SchedNode) render(b *strings.Builder, depth int) {
	var num [32]byte
	for i := 0; i <= depth; i++ {
		b.WriteString("  ")
	}
	switch n.Kind {
	case RoundRobin:
		b.WriteString("round_robin\n")
	case Deadline:
		b.WriteString("deadline_edf\n")
	case RateLimit:
		b.WriteString("rate_limit ")
		b.Write(strconv.AppendFloat(num[:0], n.RateBps, 'f', 0, 64))
		b.WriteString(" bps\n")
	case Leaf:
		b.WriteString("subgroup ")
		b.WriteString(n.Subgroup.Name)
		if n.HasSlack {
			b.WriteString(" slack ")
			b.Write(strconv.AppendFloat(num[:0], n.SlackSec*1e6, 'f', 1, 64))
			b.WriteString("us")
		}
		b.WriteString("\n")
	}
	for _, c := range n.Children {
		c.render(b, depth+1)
	}
}
