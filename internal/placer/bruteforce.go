package placer

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"lemur/internal/hw"
	"lemur/internal/nfgraph"
)

// placeBruteForce is the paper's Optimal baseline (§3.2), implemented as a
// best-first branch-and-bound search over cross-chain pattern combinations
// instead of a budget-capped sweep:
//
//   - Every per-chain pattern carries an admissible rate bound (see
//     patternFeatures): no evaluation of that pattern — split or unsplit, any
//     core allocation, any server binding — can exceed it. Prefix gains plus
//     a best-remaining-gain suffix give an optimistic marginal for every
//     partial combo.
//   - A shared incumbent (the plain maximum marginal of every combo reduced
//     so far) cuts subtrees whose optimistic marginal cannot beat it. The
//     incumbent is only advanced inside the deterministic enumeration-order
//     reduce, which makes pruning sound for the sticky ">best+1e-6" rule:
//     the sticky best is always within 1e-6 of the plain maximum, so a
//     pruned combo could never have displaced it.
//   - Interchangeable chains (identical graphs, costs and SLOs on a
//     hardware-uniform fleet) are canonicalized: within a class, pattern
//     indices are forced non-decreasing with chain index, so the search
//     visits one representative of every chain-permutation orbit. The
//     exhaustive mode applies the same canonicalization, so its results
//     are byte-identical by construction.
//   - Mandatory t_min core demand prunes subtrees that provably overflow
//     the rack, and a per-server capacity prefilter in bindComboServers
//     rejects bindings before subgroup derivation (see serverBinder).
//
// Enumeration is serial; candidate evaluation fans out over Input.Parallel
// workers in fixed-size chunks reduced in enumeration order, so the chosen
// Result — and the firstReason reported on full infeasibility, which is
// tracked by enumeration sequence number — never depend on worker count,
// schedule, or which subtrees the incumbent happened to cut.
//
// Place always passes searchPruned; the other modes are the references the
// tests hold it to.
func placeBruteForce(in *Input, mode searchMode) (*Result, error) {
	in.ensurePrep()
	budget := in.BruteForceBudget
	if budget <= 0 {
		budget = defaultBruteForceBudget
	}
	cut := mode == searchPruned

	perChain := make([][]chainPattern, len(in.Chains))
	st := &SearchStats{Combinations: 1}
	for ci, g := range in.Chains {
		pats, err := enumerateChainPatterns(in, ci, g)
		if err != nil {
			return infeasible(SchemeOptimal, err.Error()), nil
		}
		// Best-first: largest admissible marginal contribution first, so the
		// incumbent climbs fast and the bound bites early. The comparator is
		// a strict weak order over deterministic inputs, so identical chains
		// get identically ordered pattern lists (symmetry relies on it).
		sort.Slice(pats, func(a, b int) bool {
			if pats[a].gain != pats[b].gain {
				return pats[a].gain > pats[b].gain
			}
			if pats[a].bound != pats[b].bound {
				return pats[a].bound > pats[b].bound
			}
			return pats[a].sig < pats[b].sig
		})
		perChain[ci] = pats
		st.Combinations *= float64(len(pats))
	}

	classPrev := symmetryClasses(in, perChain, mode != searchRaw)

	n := len(in.Chains)
	totalCores := in.totalWorkerCores()

	// Suffix relaxations over the remaining chains: minimum t_min core
	// demand (admissible floor — every evaluation allocates at least the
	// bindServers-style demand) and maximum gain (admissible ceiling).
	sufDemand := make([]int, n+1)
	sufGain := make([]float64, n+1)
	for ci := n - 1; ci >= 0; ci-- {
		minD := int(^uint(0) >> 1)
		maxG := 0.0
		for _, p := range perChain[ci] {
			if p.demand < minD {
				minD = p.demand
			}
			if p.gain > maxG {
				maxG = p.gain
			}
		}
		sufDemand[ci] = sufDemand[ci+1] + minD
		sufGain[ci] = sufGain[ci+1] + maxG
	}

	workers := in.workers()
	binder := newServerBinder(in)

	// One evaluation slot per chunk position, reused by every chunk: the
	// combo's pattern indices, its binding verdict and its scratches.
	slots := make([]comboSlot, bruteForceChunk)
	comboIdx := make([]int, bruteForceChunk*n)
	for k := range slots {
		slots[k].combo = comboIdx[k*n : (k+1)*n : (k+1)*n]
	}
	queued := 0

	var best *Result
	// firstReason tracks the earliest infeasibility reason by enumeration
	// sequence number, so the reported reason is a pure function of the
	// input — independent of worker count and of which subtrees were cut.
	firstReason := ""
	firstSeq := int64(math.MaxInt64)
	noteAt := func(seq int64, reason string) {
		if reason != "" && seq < firstSeq {
			firstSeq, firstReason = seq, reason
		}
	}

	// The incumbent is the plain max marginal over every combo reduced so
	// far — a strict enumeration-order prefix, advanced only here in the
	// serial reduce, never by workers.
	incumbent := math.Inf(-1)
	haveIncumbent := false

	flush := func() {
		runIndexed(queued, workers, func(k int) {
			s := &slots[k]
			s.cand.tmpls = s.cand.tmpls[:0]
			for ci, pi := range s.combo {
				s.cand.tmpls = append(s.cand.tmpls, perChain[ci][pi].tmpl)
			}
			if s.bindReason = binder.bind(in, perChain, s); s.bindReason == "" {
				evaluateCandidate(in, &s.candSlot, policyMarginal)
			}
		})
		// Deterministic reduce in enumeration order with the serial sweep's
		// exact tie-breaks.
		for k := 0; k < queued; k++ {
			s := &slots[k]
			if s.bindReason != "" {
				st.BindRejected++
				mBBBindRejected.Inc()
				noteAt(s.seq, s.bindReason)
				continue
			}
			st.Evaluated++
			s.reduce(&best, func(ev *evalScratch) {
				if s.seq < firstSeq {
					noteAt(s.seq, ev.reason())
				}
			}, func(marginal float64) {
				if !haveIncumbent || marginal > incumbent {
					incumbent, haveIncumbent = marginal, true
					st.IncumbentUpdates++
					mBBIncumbent.Inc()
				}
			})
		}
		queued = 0
	}

	var (
		seq      int64 // enumeration position: leaves and prune events
		counting bool  // budget exhausted: count skipped combos only
		skipped  int
		abort    bool // skipped-combo count hit its cap: stop the walk
	)
	idx := make([]int, n)
	var dfs func(ci, demand int, gain float64)
	dfs = func(ci, demand int, gain float64) {
		if abort {
			return
		}
		if demand+sufDemand[ci] > totalCores {
			seq++
			st.DemandPruned++
			if !counting {
				mBBDemandPruned.Inc()
				noteAt(seq, fmt.Sprintf(
					"combined t_min core demand %d exceeds %d worker cores",
					demand+sufDemand[ci], totalCores))
			}
			return
		}
		// Incumbent cut: optimistic marginal of the best completion cannot
		// beat the plain max already reduced. Only sound once a feasible
		// incumbent exists (<= not <: equal optimism still cannot win the
		// sticky ">best+1e-6" comparison). Only the pruned mode cuts.
		if cut && haveIncumbent && gain+sufGain[ci] <= incumbent {
			seq++
			st.PrunedSubtrees++
			if !counting {
				mBBPruned.Inc()
			}
			return
		}
		if ci == n {
			seq++
			if counting {
				skipped++
				if skipped >= skippedCountCap {
					abort = true
				}
				return
			}
			copy(slots[queued].combo, idx)
			slots[queued].seq = seq
			if queued++; queued == bruteForceChunk {
				flush()
			}
			if cut && st.Evaluated+st.BindRejected+queued >= budget {
				counting = true
			}
			return
		}
		floor := 0
		if prev := classPrev[ci]; prev >= 0 {
			// Symmetry canonicalization: chains of one interchangeability
			// class take non-decreasing pattern indices. Every skipped index
			// roots a subtree whose combos are chain-permutations of ones
			// the canonical orbit representative covers.
			floor = idx[prev]
			if floor > 0 && !counting {
				st.CollapsedSubtrees += floor
				mBBCollapsed.Add(uint64(floor))
			}
		}
		for pi := floor; pi < len(perChain[ci]); pi++ {
			idx[ci] = pi
			dfs(ci+1, demand+perChain[ci][pi].demand, gain+perChain[ci][pi].gain)
			if abort {
				return
			}
		}
	}
	dfs(0, 0, 0)
	flush()

	res := best
	if res == nil {
		if firstReason == "" {
			firstReason = "no feasible placement in search budget"
		}
		res = infeasible(SchemeOptimal, firstReason)
	}
	// Truncated only when the budget actually left canonical combos
	// unscored — hitting the budget on the last combo is not a truncation.
	res.Truncated = skipped > 0
	res.SkippedCombos = skipped
	res.Search = st
	return res, nil
}

// searchMode is how much of the combination space placeBruteForce skips.
// Every mode keeps the demand cut: a subtree whose t_min core demand
// overflows the rack holds no combo that could bind.
type searchMode int

const (
	// searchPruned is the Optimal scheme: symmetry collapse, incumbent
	// cuts and the BruteForceBudget.
	searchPruned searchMode = iota
	// searchExhaustive collapses symmetric combos but scores every other
	// one, with no incumbent cut and no budget: the reference the pruned
	// search must match byte for byte. Exponential in the chain count.
	searchExhaustive
	// searchRaw is searchExhaustive without symmetry collapse: nothing
	// but the demand cut is skipped.
	searchRaw
)

// defaultBruteForceBudget caps scored combinations when BruteForceBudget is
// unset.
const defaultBruteForceBudget = 100000

// bruteForceChunk is the candidate-evaluation chunk size. It is fixed (not
// worker-scaled) so the incumbent advances at the same enumeration points at
// any Input.Parallel value, keeping SearchStats — not just the Result —
// deterministic.
const bruteForceChunk = 64

// skippedCountCap bounds the post-budget counting walk so a truncated search
// over an astronomically large space still terminates; SkippedCombos is
// exact below the cap and a floor ("at least this many") at it.
const skippedCountCap = 1 << 22

// SearchStats summarizes the Optimal scheme's branch-and-bound search. All
// counts are deterministic for a given Input at any Parallel worker count.
type SearchStats struct {
	// Combinations is the unpruned cross-product size Π |patterns(chain)|,
	// before symmetry collapse or any pruning (float64: it overflows int
	// long before the search would visit it).
	Combinations float64
	// Evaluated counts combos fully evaluated: server binding, subgroup
	// derivation, stage check, core allocation and rate LP.
	Evaluated int
	// BindRejected counts combos the per-server capacity prefilter rejected
	// before subgroup derivation.
	BindRejected int
	// PrunedSubtrees counts subtrees cut because their optimistic marginal
	// could not beat the incumbent.
	PrunedSubtrees int
	// DemandPruned counts subtrees cut because mandatory t_min core demand
	// already overflowed the rack.
	DemandPruned int
	// CollapsedSubtrees counts subtrees skipped by symmetry
	// canonicalization over interchangeable chains.
	CollapsedSubtrees int
	// IncumbentUpdates counts strict improvements of the shared incumbent.
	IncumbentUpdates int
}

// Visited is the number of combos the search actually scored (evaluated or
// prefilter-rejected) — the denominator-side of prune-rate reporting.
func (s *SearchStats) Visited() int { return s.Evaluated + s.BindRejected }

// comboSlot is one queued pattern combination: an evaluation slot plus the
// combo's pattern index per chain, its enumeration sequence number, the
// binder's rejection (empty when it bound) and the binder's buffers.
type comboSlot struct {
	candSlot
	combo      []int
	seq        int64
	bindReason string
	order      []int
	buckets    []uint64
}

// chainPattern is one deduplicated per-chain placement pattern with its
// precomputed search features.
type chainPattern struct {
	tmpl     *chainTemplate // what evaluation stamps into its scratch
	sig      string         // dedup signature (performance-relevant features)
	minCores int            // mandatory cores: one per probe subgroup
	demand   int            // bindServers-style t_min core demand (admissible floor)
	bound    float64        // admissible chain-rate upper bound, bps
	gain     float64        // admissible marginal contribution: max(0, bound - t_min)
}

// enumerateChainPatterns lists the distinct placement patterns of one chain
// over its nodes' allowed platforms, deduplicated by performance signature
// (subgroup cost/weight/replicability multiset + NIC uses + switch set).
func enumerateChainPatterns(in *Input, ci int, g *nfgraph.Graph) ([]chainPattern, error) {
	var flex []*nfgraph.Node
	fixed := make(map[*nfgraph.Node]Assign)
	for _, n := range g.Order {
		plats := in.allowedPlatforms(n)
		switch len(plats) {
		case 0:
			return nil, fmt.Errorf("NF %s has no available platform", n.Name())
		case 1:
			fixed[n] = Assign{Platform: plats[0]}
		default:
			flex = append(flex, n)
		}
	}
	if len(flex) > 20 {
		return nil, fmt.Errorf("chain %s too large for brute force (%d flexible NFs)", g.Chain.Name, len(flex))
	}

	choices := make([][]hw.Platform, len(flex))
	for i, n := range flex {
		choices[i] = in.allowedPlatforms(n)
	}

	seen := map[string]bool{}
	var out []chainPattern
	assign := cloneAssign(fixed)

	var walk func(i int)
	walk = func(i int) {
		if i == len(flex) {
			fillDevices(in, assign)
			cp := patternFeatures(in, g, newChainTemplate(in, ci, g, assign))
			if seen[cp.sig] {
				return
			}
			seen[cp.sig] = true
			out = append(out, cp)
			return
		}
		for _, p := range choices[i] {
			assign[flex[i]] = Assign{Platform: p}
			walk(i + 1)
		}
	}
	walk(0)
	return out, nil
}

// patternFeatures canonicalizes a per-chain assignment into its dedup
// signature plus the branch-and-bound search features: mandatory cores, the
// t_min core demand bindServers projects, and an admissible rate bound.
//
// The bound must hold for every evaluation of the pattern — the no-splits
// variant, the splitBreaks variant, any core allocation, any server binding
// (chains always bind whole to one server). Per component:
//
//   - A non-replicable subgroup caps the rate at one core's throughput —
//     but the split variant can isolate its replicable nodes, so only each
//     maximal run of non-replicable nodes (plus the per-subgroup overhead
//     both variants pay) is a sound single-core ceiling.
//   - Work on replicable nodes scales with cores but every core comes from
//     the one server the chain binds to: rate ≤ max worker cores · clock ·
//     frame / Σ(weight·cycles of replicable work), ignoring overheads and
//     core integrality (both only lower the true rate).
//   - The chain's server link: each subgroup entry crosses the server NIC,
//     so rate ≤ maxServerLink / Σ subgroup weights even as sole tenant; the
//     split variant only adds crossings.
//   - SmartNIC uses, t_max and the ingress port cap as before.
func patternFeatures(in *Input, g *nfgraph.Graph, t *chainTemplate) chainPattern {
	overhead := in.Topo.EncapCycles + in.Topo.DemuxCycles
	tmin := g.Chain.SLO.TMinBps

	parts := make([]string, 0, len(t.subs[0])+len(t.nics)+1)
	var partBuf [48]byte
	part := partBuf[:0]
	cp := chainPattern{tmpl: t, demand: t.demand, bound: g.Chain.SLO.TMaxBps}
	if in.Topo.Switch != nil {
		cp.bound = minF(cp.bound, in.Topo.Switch.PortCapacityBps)
	}
	totalWeight := 0.0
	replCost := 0.0 // Σ weight·cycles of core-scalable work
	for _, sg := range t.subs[0] {
		// "s:%.0f/%.3f/%v", appended: signatures are built for every
		// pattern walked, kept or duplicate.
		part = append(part[:0], "s:"...)
		part = strconv.AppendFloat(part, sg.Cycles, 'f', 0, 64)
		part = append(part, '/')
		part = strconv.AppendFloat(part, sg.Weight, 'f', 3, 64)
		part = append(part, '/')
		part = strconv.AppendBool(part, sg.Replicable)
		parts = append(parts, string(part))
		cp.minCores++
		totalWeight += sg.Weight
		if sg.Replicable {
			replCost += sg.Weight * sg.Cycles
			continue
		}
		// Maximal non-replicable runs within the subgroup: the tightest
		// single-core ceiling that survives the split variant.
		segCyc, segMax := 0.0, 0.0
		for _, n := range sg.Nodes {
			if nodeReplicable(n) {
				replCost += sg.Weight * in.nodeCycles(sg.ChainIdx, n)
				segMax = maxF(segMax, segCyc)
				segCyc = 0
				continue
			}
			segCyc += in.nodeCycles(sg.ChainIdx, n)
		}
		segMax = maxF(segMax, segCyc)
		if segMax > 0 {
			seg := &Subgroup{Weight: sg.Weight, Cycles: segMax + overhead, Cores: 1}
			cp.bound = minF(cp.bound, in.subRateBps(seg))
		}
	}
	if replCost > 0 {
		cp.bound = minF(cp.bound,
			float64(in.prep.maxCores)*in.clockHz()/replCost*DefaultFrameBits)
	}
	if totalWeight > 0 {
		cp.bound = minF(cp.bound, in.prep.maxLink/totalWeight)
	}
	for _, u := range t.nics {
		// "n:%s/%.0f/%.3f"
		part = append(part[:0], "n:"...)
		part = append(part, u.Node.Class()...)
		part = append(part, '/')
		part = strconv.AppendFloat(part, u.Cycles, 'f', 0, 64)
		part = append(part, '/')
		part = strconv.AppendFloat(part, u.Weight, 'f', 3, 64)
		parts = append(parts, string(part))
		cp.bound = minF(cp.bound, in.nicRateBps(u))
	}
	// The switch node set matters for stage packing: "sw:" and its nodes'
	// names, comma-separated.
	part = append(part[:0], "sw"...)
	sep := byte(':')
	for i, n := range g.Order {
		if t.assign[i].Platform == hw.PISA {
			part = append(append(part, sep), n.Name()...)
			sep = ','
		}
	}
	if sep == ':' {
		part = append(part, ':')
	}
	parts = append(parts, string(part))
	sort.Strings(parts)
	cp.sig = strings.Join(parts, ";")
	cp.gain = maxF(0, cp.bound-tmin)
	return cp
}

// symmetryClasses groups chains into interchangeability classes and returns,
// per chain, the index of its closest earlier classmate (-1 = first of its
// class, or collapse off). Two chains are interchangeable when swapping
// their full pattern assignments provably yields an equally good placement:
// identical graph structure, per-node costs, weights, platform choices and
// SLOs, on a fleet of hardware-identical servers (heterogeneous servers make
// permuted bindings genuinely differ, so symmetry is gated off).
func symmetryClasses(in *Input, perChain [][]chainPattern, collapse bool) []int {
	prev := make([]int, len(in.Chains))
	for i := range prev {
		prev[i] = -1
	}
	if !collapse || len(in.Chains) < 2 || !in.prep.uniform {
		return prev
	}
	last := map[string]int{}
	for ci := range in.Chains {
		key := chainClassKey(in, ci, perChain[ci])
		if p, ok := last[key]; ok {
			prev[ci] = p
		}
		last[key] = ci
	}
	return prev
}

// chainClassKey renders everything placement evaluation can observe about
// one chain: its SLO, graph structure with per-node costs and platform
// choices, and the enumerated pattern list (signatures already capture
// subgroup structure, NIC uses and switch sets). Equal keys ⇒ the chains'
// pattern lists align index-by-index and every evaluation is symmetric
// under swapping them.
func chainClassKey(in *Input, ci int, pats []chainPattern) string {
	g := in.Chains[ci]
	var b strings.Builder
	fmt.Fprintf(&b, "slo:%g/%g/%g", g.Chain.SLO.TMinBps, g.Chain.SLO.TMaxBps, g.Chain.SLO.DMaxSec)
	for _, n := range g.Order {
		fmt.Fprintf(&b, "|n:%s/%g/%g/%v/%v/%v", n.Class(), in.rawWorstCycles(ci, n),
			n.Weight, n.Meta.Replicable, n.IsBranch(), n.IsMerge())
		for _, p := range in.allowedPlatforms(n) {
			fmt.Fprintf(&b, ",%v", p)
		}
		for _, e := range n.Outs {
			fmt.Fprintf(&b, ">%d/%g", e.Node.Seq, e.Weight)
		}
	}
	for _, p := range pats {
		fmt.Fprintf(&b, "|p:%d/%d/%g/%s", p.minCores, p.demand, p.bound, p.sig)
	}
	return b.String()
}

// serverBinder binds each combo's chains whole to servers — like
// bindServers, but with the per-chain t_min demand precomputed per pattern
// (no per-combo subgroup probing) and a capacity prefilter: a binding whose
// demand overflows its server is rejected before subgroup derivation,
// because every evaluation of the combo allocates at least that demand there
// and would fail in allocateCores anyway.
//
// Server selection uses a remaining-capacity bucket index with one bitset of
// servers per remaining-core count: the greedy "emptiest server" pick scans
// buckets top-down and takes the lowest set bit — the lowest-index server
// among the emptiest, which on a hardware-uniform fleet is also the
// canonical representative of every server-permutation-equivalent binding.
type serverBinder struct {
	caps     []int    // worker cores per server (the prep's)
	maxCap   int      // largest of them
	words    int      // uint64 words per bucket bitset
	template []uint64 // initial bucket occupancy (maxCap+1 bitsets), copied per bind
}

// newServerBinder precomputes the bucket template for the input's fleet.
func newServerBinder(in *Input) *serverBinder {
	sb := &serverBinder{caps: in.prep.srvCores, maxCap: in.prep.maxCores}
	sb.words = (len(sb.caps) + 63) / 64
	sb.template = make([]uint64, (sb.maxCap+1)*sb.words)
	for i, c := range sb.caps {
		sb.template[c*sb.words+i/64] |= 1 << uint(i%64)
	}
	return sb
}

// bind chooses a server for every chain of the slot's combo that has server
// nodes (s.cand.srv; -1 for the rest), or rejects the combo with a
// deterministic reason. Safe for concurrent use: all mutable state is the
// slot's.
func (sb *serverBinder) bind(in *Input, perChain [][]chainPattern, s *comboSlot) string {
	combo := s.combo
	demand := func(ci int) int { return perChain[ci][combo[ci]].demand }
	srv := append(s.cand.srv[:0], make([]int, len(combo))...)
	s.cand.srv = srv

	if len(sb.caps) == 1 {
		total := 0
		for ci := range combo {
			total += demand(ci)
		}
		if total > sb.caps[0] {
			return fmt.Sprintf("server %s: chains need %d cores for t_min, has %d",
				in.Topo.Servers[0].Name, total, sb.caps[0])
		}
		return ""
	}

	// Most demanding chain first (chain index breaks ties — a total order,
	// so the insertion sort below yields the one possible result) onto the
	// emptiest server, chains with no server nodes skipped.
	order := s.order[:0]
	for ci := range combo {
		srv[ci] = -1
		if demand(ci) == 0 {
			continue
		}
		at := len(order)
		order = append(order, ci)
		for ; at > 0 && demand(order[at-1]) < demand(ci); at-- {
			order[at] = order[at-1]
		}
		order[at] = ci
	}
	s.order = order

	buckets := append(s.buckets[:0], sb.template...)
	s.buckets = buckets
	for _, ci := range order {
		d := demand(ci)
		pick, rem := -1, -1
		for b := sb.maxCap; b >= 0 && pick < 0; b-- {
			for w, word := range buckets[b*sb.words : (b+1)*sb.words] {
				if word != 0 {
					pick, rem = w*64+bits.TrailingZeros64(word), b
					break
				}
			}
		}
		if d > rem {
			return fmt.Sprintf("server %s: chain %s needs %d cores for t_min, %d left",
				in.Topo.Servers[pick].Name, in.Chains[ci].Chain.Name, d, rem)
		}
		buckets[rem*sb.words+pick/64] &^= 1 << uint(pick%64)
		buckets[(rem-d)*sb.words+pick/64] |= 1 << uint(pick%64)
		srv[ci] = pick
	}
	return ""
}

func maxF(a, b float64) float64 { return math.Max(a, b) }
