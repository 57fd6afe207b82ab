package bess

import (
	"sort"
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
func BuildSchedulersEDF(pl *Pipeline, rateCaps, slackSec map[string]float64) []CoreScheduler {
	byCore := make(map[int][]*Subgroup)
	for _, sg := range pl.Subgroups() {
		for _, s := range sg.Shares {
			byCore[s.Core] = append(byCore[s.Core], sg)
		}
	}
	cores := make([]int, 0, len(byCore))
	for c := range byCore {
		cores = append(cores, c)
	}
	sort.Ints(cores)

	var out []CoreScheduler
	for _, c := range cores {
		subs := byCore[c]
		hasDeadline := false
		for _, sg := range subs {
			if _, ok := slackSec[sg.Name]; ok {
				hasDeadline = true
				break
			}
		}
		root := &SchedNode{Kind: RoundRobin}
		if hasDeadline {
			root.Kind = Deadline
			subs = append([]*Subgroup(nil), subs...)
			sort.SliceStable(subs, func(i, j int) bool {
				si, iok := slackSec[subs[i].Name]
				sj, jok := slackSec[subs[j].Name]
				if iok != jok {
					return iok // deadline-bearing first
				}
				if iok && si != sj {
					return si < sj // most urgent (least slack) first
				}
				return subs[i].Name < subs[j].Name
			})
		}
		for _, sg := range subs {
			leaf := &SchedNode{Kind: Leaf, Subgroup: sg}
			if s, ok := slackSec[sg.Name]; ok {
				leaf.SlackSec, leaf.HasSlack = s, true
			}
			child := leaf
			if cap, ok := rateCaps[sg.Name]; ok && cap > 0 {
				child = &SchedNode{Kind: RateLimit, RateBps: cap, Children: []*SchedNode{leaf}}
				child.SlackSec, child.HasSlack = leaf.SlackSec, leaf.HasSlack
			}
			root.Children = append(root.Children, child)
		}
		out = append(out, CoreScheduler{Core: c, Root: root})
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
