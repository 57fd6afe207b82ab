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
// placement input recomputes otherwise. It has three parts. The chain half
// depends only on the chain set and the cost database: flattened nodes,
// profiled worst-case cycles, path expansions, PISA table names, the LP's
// fixed vectors. The topology half holds the server and SmartNIC indices the
// evaluation scratch keys its core ledger and LP links by, and the fleet
// summary the branch-and-bound search relaxes against. The stage-check memo
// depends on the chain set and the switch.
//
// ensurePrep installs a prep that matches the input at every entry point
// (Place, Reconfigure, ReEvaluate, and the heuristic, for the ablations that
// copy an Input and swap its cost database), so the evaluation path indexes
// it without validating. Preps come in families: a new cost database (or an
// input without a prep) starts one, and every prep derived from a copy of
// that input — an admission, a retry of one, a compaction, a reduced
// topology — joins it. The family holds what they share: one entry per chain,
// keyed by its graph; the store the dense vectors are views of; the reduced
// topology of the current dead set; and one evaluation scratch. So an
// incremental call costs its delta, not the slots admitted before it.
type inputPrep struct {
	*chainPrep
	*topoPrep
	stage *stageMemo
}

// prepFamily is what the preps derived from one fresh build share. The
// scratch is handed to one call at a time (takeScratch); everything else is
// written by ensurePrep and surviving under mu and read-only once a prep
// holds it.
type prepFamily struct {
	db *profile.DB

	mu      sync.Mutex
	byChain map[*nfgraph.Graph]*chainEntry
	surv    survivors

	scratch atomic.Pointer[evalScratch]
}

// chainEntry is one chain's share of the chain half, derived once per family
// and shared by every prep whose chain set holds the chain at slot ci.
type chainEntry struct {
	ci int // the slot the table names are rendered for

	// cycles holds DB.WorstCycles by Node.Seq (cross-socket penalty applied
	// live); names each PISA-capable node's logical table names, by Node.Seq;
	// paths the root-to-leaf path expansion (Graph.Paths allocates its result
	// on every call; latency checks and bounce counts walk it per candidate).
	cycles []float64
	names  [][]string
	paths  []nfgraph.Path

	// tables and deps are the chain's share of the switch program's table
	// count and of the ints in its dependency lists, at most.
	tables, deps int
}

// chainVecs is one store of the dense vectors. Its slices hold every chain
// written into it so far, its claim; a chain half is a capped prefix view,
// and only a derivation that starts at the claim writes past it.
type chainVecs struct {
	chains      []*nfgraph.Graph
	ents        []*chainEntry
	nodes       []*nfgraph.Node
	base        []int
	ones, tmins []float64
}

// chainPrep is the half of the prep derived from the chain set and the cost
// database alone, read-only once built.
type chainPrep struct {
	fam  *prepFamily
	vecs *chainVecs

	// chains and ents are by slot. nodes flattens every chain's nodes in
	// enumeration order and base[ci] is chain ci's first index in it, so
	// base[ci]+n.Seq is node n's dense index. maxTables bounds the switch
	// program's size and maxDeps the ints in its dependency lists (both
	// feed the optimized lowering, tableBuf.lower).
	chains    []*nfgraph.Graph
	ents      []*chainEntry
	nodes     []*nfgraph.Node
	base      []int
	maxTables int
	maxDeps   int

	// ones and tmins are the rate LP's objective (all ones) and per-chain
	// t_min vector, shared read-only across every solve (lp.Solve copies
	// coefficients, never mutates them).
	ones  []float64
	tmins []float64
}

// topoPrep is the half of the prep derived from the topology alone.
type topoPrep struct {
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
}

// survivors is the reduced topology of one dead set: the input topology it
// was cut from, the Failed set asked for, its expansion, and the cut
// topology with its topology half.
type survivors struct {
	full         *hw.Topology
	failed, dead NodeSet
	topo         *topoPrep
}

// stageMemo memoizes stageCheck verdicts keyed by the PISA-assignment
// bitstring over nodes. Guarded: parallel workers share one prep.
type stageMemo struct {
	mu sync.Mutex
	m  map[string]stageVerdict
}

func newStageMemo() *stageMemo { return &stageMemo{m: make(map[string]stageVerdict)} }

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

// ensurePrep installs (or refreshes) the prep for the input's current DB,
// topology and chain set. Called at every entry point, before workers fan
// out. A new database starts a family; a new chain set is derived within the
// family (derive) and starts its stage memo empty, since the memo's keys span
// the chain set; a new topology keeps the chain half, and the memo too when
// the switch is the same.
func (in *Input) ensurePrep() {
	p := in.prep
	switch {
	case p == nil || p.fam.db != in.DB:
		// Nobody else holds the new family yet: no lock.
		fam := &prepFamily{db: in.DB, byChain: make(map[*nfgraph.Graph]*chainEntry, len(in.Chains))}
		in.prep = &inputPrep{chainPrep: fam.chainHalf(nil, in.Chains), topoPrep: newTopoPrep(in.Topo), stage: newStageMemo()}
	case !slices.Equal(p.chains, in.Chains):
		in.prep = p.fam.derive(p, in)
	case p.topo != in.Topo:
		memo := p.stage
		if p.topo.Switch != in.Topo.Switch {
			memo = newStageMemo()
		}
		in.prep = &inputPrep{chainPrep: p.chainPrep, topoPrep: newTopoPrep(in.Topo), stage: memo}
	}
}

// derive is ensurePrep for a chain set other than from's, in from's family.
func (f *prepFamily) derive(from *inputPrep, in *Input) *inputPrep {
	tp := from.topoPrep
	if tp.topo != in.Topo {
		tp = newTopoPrep(in.Topo)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return &inputPrep{chainPrep: f.chainHalf(from.chainPrep, in.Chains), topoPrep: tp, stage: newStageMemo()}
}

// chainHalf is the one chain-half builder: it derives the chain half of
// chains from from (nil for none — a fresh build is the derivation from
// nothing). The chains that from's store already holds at the same slots are
// shared, whether from holds them (the running chains of an admission) or a
// sibling derivation wrote them past from's end (a retried admission). The
// rest are appended, in place when the shared prefix ends at the store's
// claim and it has room, otherwise into a copy of the prefix: exactly sized
// for a fresh build, with room to double for a derivation, so a run of
// admissions copies each slot a bounded number of times. f.mu is held, or f
// is not yet shared.
func (f *prepFamily) chainHalf(from *chainPrep, chains []*nfgraph.Graph) *chainPrep {
	var v *chainVecs
	k := 0
	if from != nil {
		v = from.vecs
		for k < len(chains) && k < len(v.chains) && v.chains[k] == chains[k] {
			k++
		}
	}
	if k < len(chains) {
		add := 0
		for _, g := range chains[k:] {
			add += len(g.Order)
		}
		switch {
		case v == nil:
			v = newChainVecs(nil, 0, len(chains), add)
		case k < len(v.chains) || cap(v.chains) < len(chains) || cap(v.nodes) < len(v.nodes)+add:
			held := len(v.nodes)
			if k < len(v.chains) {
				held = v.base[k]
			}
			v = newChainVecs(v, k, 2*len(chains), 2*(held+add))
		}
		for ci := k; ci < len(chains); ci++ {
			g := chains[ci]
			v.chains = append(v.chains, g)
			v.ents = append(v.ents, f.entry(g, ci))
			v.base = append(v.base, len(v.nodes))
			v.nodes = append(v.nodes, g.Order...)
			v.ones = append(v.ones, 1)
			v.tmins = append(v.tmins, g.Chain.SLO.TMinBps)
		}
	}
	if v == nil {
		v = new(chainVecs) // a fresh build of no chains
	}
	n, nn := len(chains), 0
	if n > 0 {
		nn = v.base[n-1] + len(chains[n-1].Order)
	}
	p := &chainPrep{
		fam: f, vecs: v,
		chains: v.chains[:n:n], ents: v.ents[:n:n], nodes: v.nodes[:nn:nn], base: v.base[:n:n],
		ones: v.ones[:n:n], tmins: v.tmins[:n:n],
		maxTables: 1, // steer_classify
	}
	for _, e := range p.ents {
		p.maxTables += e.tables
		p.maxDeps += e.deps
	}
	return p
}

// newChainVecs is a store with room for chainCap chains and nodeCap nodes
// holding the first k chains of from (nil for none).
func newChainVecs(from *chainVecs, k, chainCap, nodeCap int) *chainVecs {
	v := &chainVecs{
		chains: make([]*nfgraph.Graph, 0, chainCap),
		ents:   make([]*chainEntry, 0, chainCap),
		nodes:  make([]*nfgraph.Node, 0, nodeCap),
		base:   make([]int, 0, chainCap),
		ones:   make([]float64, 0, chainCap),
		tmins:  make([]float64, 0, chainCap),
	}
	if k > 0 {
		v.chains = append(v.chains, from.chains[:k]...)
		v.ents = append(v.ents, from.ents[:k]...)
		v.base = append(v.base, from.base[:k]...)
		v.ones = append(v.ones, from.ones[:k]...)
		v.tmins = append(v.tmins, from.tmins[:k]...)
		v.nodes = append(v.nodes, from.nodes[:from.base[k-1]+len(from.chains[k-1].Order)]...)
	}
	return v
}

// entry returns chain g's entry at slot ci, deriving what the family does
// not hold yet: everything for a chain it has not seen, the table names
// alone for one it has seen at another slot (a compaction renumbers chains).
// f.mu is held, or f is not yet shared.
func (f *prepFamily) entry(g *nfgraph.Graph, ci int) *chainEntry {
	e := f.byChain[g]
	if e != nil && e.ci == ci {
		return e
	}
	if e != nil {
		moved := *e
		e = &moved
	} else {
		e = &chainEntry{cycles: make([]float64, len(g.Order)), paths: g.Paths()}
		for _, n := range g.Order {
			e.cycles[n.Seq] = f.db.WorstCycles(n.Class(), n.Inst.Params)
			if prof := n.Meta.PISA; prof != nil {
				e.tables += prof.Tables
			}
		}
		// A node gathers at most what its predecessors carry, then writes
		// one single-entry list per table and one for its successors. What
		// it carries on is one table when it is on the switch and what it
		// gathered when it is not: never more than the chain has tables.
		// Every node is written before a successor reads it.
		carried := make([]int, len(g.Order))
		for _, n := range g.Order {
			gathered := 0
			for _, pred := range n.Ins {
				gathered += carried[pred.Seq]
			}
			carried[n.Seq] = min(max(gathered, 1), max(e.tables, 1))
			e.deps += gathered + 1
			if prof := n.Meta.PISA; prof != nil {
				e.deps += prof.Tables
			}
		}
	}
	e.ci, e.names = ci, make([][]string, len(g.Order))
	for _, n := range g.Order {
		if prof := n.Meta.PISA; prof != nil {
			names := make([]string, prof.Tables)
			for t := range names {
				names[t] = fmt.Sprintf("c%d_%s_t%d", ci, n.Name(), t)
			}
			e.names[n.Seq] = names
		}
	}
	f.byChain[g] = e
	return e
}

// newTopoPrep derives the topology half. Topology.Validate has rejected
// duplicate device names, so each name indexes one device.
func newTopoPrep(topo *hw.Topology) *topoPrep {
	p := &topoPrep{
		topo:     topo,
		srvOrd:   make(map[string]int, len(topo.Servers)),
		srvCores: make([]int, len(topo.Servers)),
		nics:     make(map[string]*hw.SmartNICSpec, len(topo.SmartNICs)),
		uniform:  true,
	}
	for _, nic := range topo.SmartNICs {
		p.nics[nic.Name] = nic
	}
	ref := topo.Servers[0]
	for i, s := range topo.Servers {
		p.srvOrd[s.Name] = i
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

// survivors returns the expansion of failed on full and the topology half
// of what survives it, cutting them only when the family's last cut was of
// another topology or another Failed set (kept as a copy: callers reuse
// theirs). An empty dead set, or one that leaves no server, comes back with
// a nil half.
func (f *prepFamily) survivors(full *hw.Topology, failed NodeSet) (NodeSet, *topoPrep) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := &f.surv
	if s.full == full && len(s.failed) == len(failed) {
		same := true
		for n := range failed {
			if !s.failed[n] {
				same = false
				break
			}
		}
		if same {
			return s.dead, s.topo
		}
	}
	*s = survivors{full: full, failed: maps.Clone(failed), dead: failed.Expand(full)}
	if len(s.dead) == 0 {
		return s.dead, nil
	}
	rt := *full
	rt.Servers, rt.SmartNICs = nil, nil
	for _, srv := range full.Servers {
		if !s.dead[srv.Name] {
			rt.Servers = append(rt.Servers, srv)
		}
	}
	for _, nic := range full.SmartNICs {
		if !s.dead[nic.Name] {
			rt.SmartNICs = append(rt.SmartNICs, nic)
		}
	}
	if len(rt.Servers) > 0 {
		s.topo = newTopoPrep(&rt)
	}
	return s.dead, s.topo
}

// takeScratch hands the family's evaluation scratch to one call, bound to
// in (whose prep is installed); a caller that finds it taken — another call
// in the same family is running — gets a scratch of its own. putScratch
// gives it back.
func (in *Input) takeScratch() *evalScratch {
	ev := in.prep.fam.scratch.Swap(nil)
	if ev == nil {
		ev = new(evalScratch)
	}
	return ev.bind(in)
}

// putScratch returns a scratch taken from in's family, dropping what it
// still points at from the call.
func (in *Input) putScratch(ev *evalScratch) {
	ev.in, ev.p, ev.res, ev.short = nil, nil, nil, tminShortfall{}
	in.prep.fam.scratch.Store(ev)
}

// rawWorstCycles returns DB.WorstCycles for node n of chain ci, from the
// prep when it matches the input's database and chain.
func (in *Input) rawWorstCycles(ci int, n *nfgraph.Node) float64 {
	if p := in.prep; p != nil && p.fam.db == in.DB && ci < len(p.chains) && p.chains[ci] == in.Chains[ci] {
		return p.ents[ci].cycles[n.Seq]
	}
	return in.DB.WorstCycles(n.Class(), n.Inst.Params)
}
