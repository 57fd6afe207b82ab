package placer

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"lemur/internal/hw"
	"lemur/internal/nfgraph"
	"lemur/internal/obs"
	"lemur/internal/profile"
)

// inputPrep caches derived state that every candidate evaluation of one
// placement input recomputes otherwise. It has two halves. chainPrep depends
// only on the chain set and the cost database: flattened nodes, profiled
// worst-case cycles, path expansions, PISA table names, the LP's fixed
// vectors. The rest depends on the topology: the server and SmartNIC indices
// the evaluation scratch keys its core ledger and LP links by, the fleet summary
// the branch-and-bound search relaxes against, and the stage-check memo
// (which depends on the switch only, so it survives a change of servers).
//
// ensurePrep installs a prep that matches the input at every entry point
// (Place, Reconfigure, ReEvaluate, and the heuristic, for the
// ablations that copy an Input and swap its cost database), so the
// evaluation path indexes it without validating. A changed topology keeps
// the chain half: Reconfigure's reduced topology costs one small index, not a
// second pass over the cost database. An admission extends the chain half:
// it costs the admitted chains, not the slots admitted before them.
type inputPrep struct {
	*chainPrep
	topo *hw.Topology

	// srvOrd maps a server name to its index in Topo.Servers, srvCores holds
	// the worker-core budget by that index, nics maps SmartNIC names to
	// their specs.
	srvOrd   map[string]int
	srvCores []int
	nics     map[string]*hw.SmartNICSpec

	// Fleet summary for the branch-and-bound search: the largest per-server
	// worker-core budget and primary-NIC capacity (its admissible
	// single-server relaxations), and whether every server is
	// hardware-identical (the gate for symmetry canonicalization — on a
	// heterogeneous fleet, permuting chains across servers genuinely
	// changes the binding).
	maxCores int
	maxLink  float64
	uniform  bool

	stage *stageMemo
}

// chainPrep is the half of the prep derived from the chain set and the cost
// database alone. All read-only after build, including what a later chain
// half extended from it shares (see extendChainPrep).
type chainPrep struct {
	db     *profile.DB
	chains []*nfgraph.Graph

	// nodes flattens every chain's nodes in enumeration order and base[ci]
	// is chain ci's first index in it, so base[ci]+n.Seq is node n's dense
	// index. rawCycles holds DB.WorstCycles per node (cross-socket penalty
	// applied live). pisaNames holds, by dense index, each PISA-capable
	// node's logical table names; maxTables bounds the switch program's size
	// and maxDeps the ints in its dependency lists (all three feed the
	// optimized lowering, tableBuf.lower, which otherwise rebuilds the same
	// strings and regrows the same buffers for every candidate).
	nodes     []*nfgraph.Node
	base      []int
	rawCycles map[*nfgraph.Node]float64
	pisaNames [][]string
	maxTables int
	maxDeps   int

	// paths caches each chain's root-to-leaf path expansion (Graph.Paths
	// allocates its result on every call; latency checks and bounce counts
	// walk it per candidate).
	paths [][]nfgraph.Path

	// ones and tmins are the rate LP's objective (all ones) and per-chain
	// t_min vector, shared read-only across every solve (lp.Solve copies
	// coefficients, never mutates them).
	ones  []float64
	tmins []float64
}

// stageMemo memoizes stageCheck verdicts keyed by the PISA-assignment
// bitstring over nodes. Guarded: parallel workers share one prep.
type stageMemo struct {
	mu sync.Mutex
	m  map[string]stageVerdict
}

// stageVerdict is a memoized stageCheck outcome.
type stageVerdict struct {
	stages int
	reason string
	ok     bool
}

var (
	mStageMemoHit  = obs.C("lemur_placer_stage_memo_total", obs.L("result", "hit"))
	mStageMemoMiss = obs.C("lemur_placer_stage_memo_total", obs.L("result", "miss"))

	// Unconditional counterparts of the obs counters (which are no-ops
	// until obs.Enable): always-on totals across all preps, for tests and
	// the benchmark reporter.
	stageMemoHits   atomic.Uint64
	stageMemoMisses atomic.Uint64
)

// StageMemoStats reports process-wide stage-memo hits and misses.
func StageMemoStats() (hits, misses uint64) {
	return stageMemoHits.Load(), stageMemoMisses.Load()
}

// ensurePrep installs (or refreshes) the prep for the input's current DB,
// topology and chain set. Called at every entry point, before workers fan
// out. An admission grows the chain set by a tail (Delta.Admit), so a prep
// whose chains are a prefix of the input's, on the same database, has its
// chain half extended rather than rebuilt; any other change of chain set or
// database rebuilds it. Either way the stage memo starts empty: its keys
// span the chain set.
func (in *Input) ensurePrep() {
	p := in.prep
	switch {
	case p == nil || p.db != in.DB || !chainPrefix(p.chains, in.Chains):
		in.prep = newTopoPrep(in, extendChainPrep(nil, in), nil)
	case len(p.chains) < len(in.Chains):
		in.prep = newTopoPrep(in, extendChainPrep(p.chainPrep, in), nil)
	case p.topo != in.Topo:
		memo := p.stage
		if p.topo.Switch != in.Topo.Switch {
			memo = nil
		}
		in.prep = newTopoPrep(in, p.chainPrep, memo)
	}
}

// chainPrefix reports whether a is a prefix of b, pointer for pointer.
func chainPrefix(a, b []*nfgraph.Graph) bool {
	return len(a) <= len(b) && slices.Equal(a, b[:len(a)])
}

// extendChainPrep is the one chain-half builder: it derives in's chain half
// from from, the chain half of a prefix of in's chains on the same database
// (nil for none — a fresh build is the extension of nothing). The prefix's
// vectors are copied, its chains' path expansions and table names shared
// (both read-only), and only the chains past it are derived, so an admission
// costs the admitted chains rather than every slot ever admitted.
func extendChainPrep(from *chainPrep, in *Input) *chainPrep {
	if from == nil {
		from = &chainPrep{maxTables: 1} // steer_classify
	}
	k, nc := len(from.chains), len(in.Chains)
	total := len(from.nodes)
	for _, g := range in.Chains[k:] {
		total += len(g.Order)
	}
	p := &chainPrep{
		db:        in.DB,
		chains:    slices.Clone(in.Chains),
		nodes:     append(make([]*nfgraph.Node, 0, total), from.nodes...),
		base:      append(make([]int, 0, nc), from.base...),
		rawCycles: make(map[*nfgraph.Node]float64, total),
		pisaNames: append(make([][]string, 0, total), from.pisaNames...),
		maxTables: from.maxTables,
		maxDeps:   from.maxDeps,
		paths:     append(make([][]nfgraph.Path, 0, nc), from.paths...),
		ones:      append(make([]float64, 0, nc), from.ones...),
		tmins:     append(make([]float64, 0, nc), from.tmins...),
	}
	maps.Copy(p.rawCycles, from.rawCycles)
	var carried []int
	for ci := k; ci < nc; ci++ {
		g := in.Chains[ci]
		p.base = append(p.base, len(p.nodes))
		p.nodes = append(p.nodes, g.Order...)
		p.paths = append(p.paths, g.Paths())
		p.ones = append(p.ones, 1)
		p.tmins = append(p.tmins, g.Chain.SLO.TMinBps)
		chainTables := 0
		for _, n := range g.Order {
			p.rawCycles[n] = in.DB.WorstCycles(n.Class(), n.Inst.Params)
			var names []string
			if prof := n.Meta.PISA; prof != nil {
				names = make([]string, prof.Tables)
				for t := range names {
					names[t] = fmt.Sprintf("c%d_%s_t%d", ci, n.Name(), t)
				}
				chainTables += prof.Tables
			}
			p.pisaNames = append(p.pisaNames, names)
		}
		p.maxTables += chainTables
		// A node gathers at most what its predecessors carry, then writes
		// one single-entry list per table and one for its successors. What
		// it carries on is one table when it is on the switch and what it
		// gathered when it is not: never more than the chain has tables.
		// Every node is written before a successor reads it.
		carried = slices.Grow(carried[:0], len(g.Order))[:len(g.Order)]
		for _, n := range g.Order {
			gathered := 0
			for _, pred := range n.Ins {
				gathered += carried[pred.Seq]
			}
			carried[n.Seq] = min(max(gathered, 1), max(chainTables, 1))
			p.maxDeps += gathered + 1
			if prof := n.Meta.PISA; prof != nil {
				p.maxDeps += prof.Tables
			}
		}
	}
	return p
}

// newTopoPrep derives the topology half over a chain half; memo carries a
// stage memo over when the switch did not change.
func newTopoPrep(in *Input, cp *chainPrep, memo *stageMemo) *inputPrep {
	if memo == nil {
		memo = &stageMemo{m: make(map[string]stageVerdict)}
	}
	topo := in.Topo
	p := &inputPrep{
		chainPrep: cp, topo: topo, stage: memo,
		srvOrd:   make(map[string]int, len(topo.Servers)),
		srvCores: make([]int, len(topo.Servers)),
		nics:     make(map[string]*hw.SmartNICSpec, len(topo.SmartNICs)),
		uniform:  true,
	}
	for _, nic := range topo.SmartNICs {
		if _, dup := p.nics[nic.Name]; !dup {
			p.nics[nic.Name] = nic
		}
	}
	ref := topo.Servers[0]
	for i, s := range topo.Servers {
		if _, dup := p.srvOrd[s.Name]; !dup {
			p.srvOrd[s.Name] = i
		}
		p.srvCores[i] = s.WorkerCores()
		p.maxCores = max(p.maxCores, p.srvCores[i])
		if len(s.NICs) > 0 && s.NICs[0].CapacityBps > p.maxLink {
			p.maxLink = s.NICs[0].CapacityBps
		}
		if s.Sockets != ref.Sockets || s.CoresPerSocket != ref.CoresPerSocket ||
			s.ClockHz != ref.ClockHz || s.ReservedCores != ref.ReservedCores ||
			len(s.NICs) != len(ref.NICs) {
			p.uniform = false
			continue
		}
		for i := range s.NICs {
			if s.NICs[i].CapacityBps != ref.NICs[i].CapacityBps ||
				s.NICs[i].Socket != ref.NICs[i].Socket {
				p.uniform = false
			}
		}
	}
	return p
}

// rawWorstCycles returns DB.WorstCycles for a node, via the prep when it
// matches the input's current database.
func (in *Input) rawWorstCycles(n *nfgraph.Node) float64 {
	if p := in.prep; p != nil && p.db == in.DB {
		if c, ok := p.rawCycles[n]; ok {
			return c
		}
	}
	return in.DB.WorstCycles(n.Class(), n.Inst.Params)
}
