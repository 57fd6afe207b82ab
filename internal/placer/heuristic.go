package placer

import (
	"math"

	"lemur/internal/hw"
	"lemur/internal/nfgraph"
	"lemur/internal/profile"
)

// lemurHeuristic is the paper's fast heuristic (§3.2): greedy switch
// placement with stage-driven eviction, subgroup-coalescing variants, and
// LP-scored core allocation. Lemur runs it with policyMarginal and
// coalescing; the Figure 2f ablations change one of the two (NoCoreAlloc
// passes policyNone, NoCoalesce skips step 2).
func lemurHeuristic(in *Input, policy allocPolicy, coalesce bool) (*Result, error) {
	in.ensurePrep() // refresh for callers that copy the Input and swap the DB
	workers := in.workers()

	// Step 1 (serial — each eviction loop consults the stage compiler, which
	// the shared verdict cache makes cheap on reruns): greedy switch
	// placement per base; evict the lowest-cycle-cost evictable NF until the
	// stage compiler accepts. Step 2: coalescing variants per base —
	// baseline, strict+conservative, strict+aggressive, plus a
	// fully-coalesced low-bounce variant for latency-constrained inputs.
	// Each mode is a pure function of the post-eviction assignment, so the
	// three modes run concurrently.
	type baseCand struct {
		evictReason string
		variants    []map[*nfgraph.Node]Assign
	}
	var bases []baseCand
	all := make([]int, len(in.Chains))
	for ci := range all {
		all[ci] = ci
	}
	for _, assign := range baselineAssigns(in, nil, all) {
		if reason, ok := evictUntilFits(newEvalScratch(in), assign, nil); !ok {
			bases = append(bases, baseCand{evictReason: reason})
			continue
		}
		variants := make([]map[*nfgraph.Node]Assign, 1, 4)
		variants[0] = assign
		if coalesce {
			variants = variants[:4]
			modes := []coalesceMode{coalesceConservative, coalesceAggressive, coalesceAll}
			runIndexed(len(modes), workers, func(i int) {
				variants[i+1] = applyCoalescing(in, assign, modes[i])
			})
		}
		bases = append(bases, baseCand{variants: variants})
	}

	// Step 3: allocate cores, run the LP, keep the best marginal. Each
	// variant is also tried with non-replicable NFs split into their own
	// subgroups (trading a bounce for core scalability, §5.3). Variants
	// evaluate concurrently, each in a slot of its own; the reduce below
	// walks them in base/variant order so serial and parallel runs pick the
	// identical Result.
	var flat []map[*nfgraph.Node]Assign
	for _, bc := range bases {
		flat = append(flat, bc.variants...)
	}
	slots := make([]candSlot, len(flat))
	runIndexed(len(flat), workers, func(i int) {
		slots[i].cand = newCandidate(in, flat[i])
		evaluateCandidate(in, &slots[i], policy)
	})

	var best *Result
	var firstReason string
	vi := 0
	for _, bc := range bases {
		if firstReason == "" {
			firstReason = bc.evictReason
		}
		for range bc.variants {
			slots[vi].reduce(&best, func(ev *evalScratch) {
				if firstReason == "" {
					firstReason = ev.reason()
				}
			}, nil)
			vi++
		}
	}
	if best == nil {
		if firstReason == "" {
			firstReason = "no feasible placement"
		}
		return infeasible(SchemeLemur, firstReason), nil
	}
	return best, nil
}

// baselineAssigns produces the step-1 greedy assignments of the given chains
// on top of a copy of prev (nil for a fresh placement; an admission passes
// the running placement's assignment and its new chains): every NF with a
// P4 implementation on the switch, the rest on servers — plus, when a
// SmartNIC is present, a variant offloading eBPF-capable server NFs to it.
func baselineAssigns(in *Input, prev map[*nfgraph.Node]Assign, chains []int) []map[*nfgraph.Node]Assign {
	serverOnly, withNIC := cloneAssign(prev), cloneAssign(prev)
	nicUseful := false
	for _, ci := range chains {
		for _, n := range in.Chains[ci].Order {
			switch {
			case in.allows(n, hw.PISA):
				serverOnly[n] = Assign{Platform: hw.PISA, Device: in.Topo.Switch.Name}
				withNIC[n] = serverOnly[n]
			case in.allows(n, hw.Server):
				serverOnly[n] = Assign{Platform: hw.Server}
				if in.allows(n, hw.SmartNIC) {
					withNIC[n] = Assign{Platform: hw.SmartNIC}
					nicUseful = true
				} else {
					withNIC[n] = serverOnly[n]
				}
			case in.allows(n, hw.SmartNIC):
				serverOnly[n] = Assign{Platform: hw.SmartNIC}
				withNIC[n] = serverOnly[n]
				nicUseful = true
			default:
				// No platform available: mark on server, so that evaluation
				// surfaces a clear reason.
				serverOnly[n] = Assign{Platform: hw.Server}
				withNIC[n] = serverOnly[n]
			}
		}
	}
	bindNICs(in, serverOnly)
	bindNICs(in, withNIC)
	if nicUseful {
		return []map[*nfgraph.Node]Assign{withNIC, serverOnly}
	}
	return []map[*nfgraph.Node]Assign{serverOnly}
}

// evictUntilFits implements heuristic step 1's eviction loop on assign, in
// place: while the switch program overflows the pipeline, move the
// lowest-cycle-cost server-capable NF off the switch (line-rate is
// guaranteed for whatever stays, so cheap NFs are the best candidates to
// absorb on cores). A non-nil only restricts the victims to the chains it
// marks — the incremental calls must not move a pinned chain's switch
// residency, which is part of its placement. ev is the caller's scratch.
func evictUntilFits(ev *evalScratch, assign map[*nfgraph.Node]Assign, only []bool) (string, bool) {
	in := ev.in
	ev.res = &Result{Assign: assign}
	for {
		ev.load(assign)
		reason, ok := ev.stageCheck()
		if ok {
			return "", true
		}
		var victim *nfgraph.Node
		victimCost := math.Inf(1)
		for ci, g := range in.Chains {
			if only != nil && !only[ci] {
				continue
			}
			for _, n := range g.Order {
				if a, on := assign[n]; !on || a.Platform != hw.PISA {
					continue
				}
				if !in.allows(n, hw.Server) {
					continue
				}
				if c := in.nodeCycles(ci, n); c < victimCost {
					victimCost, victim = c, n
				}
			}
		}
		if victim == nil {
			return reason, false
		}
		assign[victim] = Assign{Platform: hw.Server}
		mEvictions.Inc()
	}
}

// Coalescing modes for heuristic step 2.
type coalesceMode int

const (
	coalesceConservative coalesceMode = iota // strict ∪ conservative rules
	coalesceAggressive                       // strict ∪ aggressive rules
	coalesceAll                              // move every bridge NF to the server
)

// bridge describes a switch NF sitting linearly between two server
// subgroups of the same chain — moving it to the server merges them and
// frees a core (§3.2 step 2).
type bridge struct {
	node     *nfgraph.Node
	chainIdx int
	s1, s2   *Subgroup
}

// findBridges locates coalescing opportunities under an assignment whose
// server nodes are not yet bound to a device.
func findBridges(in *Input, probe map[*nfgraph.Node]Assign) []bridge {
	var bridges []bridge
	for ci, g := range in.Chains {
		subs := computeSubgroups(in, ci, g, probe)
		tail := map[*nfgraph.Node]*Subgroup{}
		head := map[*nfgraph.Node]*Subgroup{}
		for _, sg := range subs {
			head[sg.Nodes[0]] = sg
			tail[sg.Nodes[len(sg.Nodes)-1]] = sg
		}
		for _, n := range g.Order {
			a, ok := probe[n]
			if !ok || a.Platform != hw.PISA {
				continue
			}
			if len(n.Ins) != 1 || len(n.Outs) != 1 || !in.allows(n, hw.Server) {
				continue
			}
			s1, ok1 := tail[n.Ins[0]]
			s2, ok2 := head[n.Outs[0].Node]
			if !ok1 || !ok2 || s1 == s2 {
				continue
			}
			bridges = append(bridges, bridge{node: n, chainIdx: ci, s1: s1, s2: s2})
		}
	}
	return bridges
}

// applyCoalescing applies step-2 rules repeatedly until fixpoint and
// returns a new assignment. Moves only ever take NFs off the switch, so the
// stage constraint verified in step 1 keeps holding. Server nodes are not
// bound yet, so the growing assignment is its own subgroup probe.
func applyCoalescing(in *Input, assign map[*nfgraph.Node]Assign, mode coalesceMode) map[*nfgraph.Node]Assign {
	out := cloneAssign(assign)
	overhead := in.Topo.EncapCycles + in.Topo.DemuxCycles
	f := in.clockHz()
	for {
		moved := false
		for _, b := range findBridges(in, out) {
			cb := in.nodeCycles(b.chainIdx, b.node)
			cc := b.s1.Cycles + b.s2.Cycles + cb - overhead // one shared overhead
			w := b.s1.Weight
			bits := float64(DefaultFrameBits)
			replicable := b.s1.Replicable && b.s2.Replicable && b.node.Meta.Replicable

			coalCores := 2.0
			if !replicable {
				coalCores = 1
			}
			thrCoal := coalCores * f / cc * bits / w
			thrSep := minF(f/b.s1.Cycles, f/b.s2.Cycles) * bits / w

			apply := false
			switch mode {
			case coalesceAll:
				apply = true
			case coalesceConservative:
				// Strict: two coalesced cores beat one core each. Or
				// conservative: the chain's throughput does not decrease —
				// the pair is not the chain bottleneck at 1 core each.
				chainBottle := math.Inf(1)
				probeSubs := res1CoreCaps(in, out, b.chainIdx)
				for _, r := range probeSubs {
					chainBottle = minF(chainBottle, r)
				}
				apply = thrCoal > thrSep || thrCoal >= chainBottle-1e-6
			case coalesceAggressive:
				// Strict, or aggressive: coalescing still lets the chain
				// meet t_min with cores that could be allocated.
				tmin := in.Chains[b.chainIdx].Chain.SLO.TMinBps
				need := math.Ceil(tmin * w / bits * cc / f)
				canMeet := need <= 1 || (replicable && int(need) <= in.totalWorkerCores())
				apply = thrCoal > thrSep || canMeet
			}
			if apply {
				out[b.node] = Assign{Platform: hw.Server}
				mCoalesceMoves.Inc()
				moved = true
				break // recompute bridges after each move
			}
		}
		if !moved {
			return out
		}
	}
}

// res1CoreCaps returns each subgroup's chain-rate ceiling at one core for
// the given chain under an unbound assignment.
func res1CoreCaps(in *Input, probe map[*nfgraph.Node]Assign, chainIdx int) []float64 {
	subs := computeSubgroups(in, chainIdx, in.Chains[chainIdx], probe)
	var out []float64
	for _, sg := range subs {
		sg.Cores = 1
		out = append(out, in.subRateBps(sg))
	}
	return out
}

// placeNoProfiling is the Figure 2f ablation: placement and allocation
// decided with a uniform cost model, then re-evaluated with real profiles.
func placeNoProfiling(in *Input) (*Result, error) {
	blind := *in
	blind.DB = profile.Uniform(3000)
	res, err := lemurHeuristic(&blind, policyMarginal, true)
	if err != nil || !res.Feasible {
		return res, err
	}
	return reEvaluate(in, res), nil
}

// reEvaluate rebuilds a decided placement's rates under the input's real
// cost database, keeping the (possibly misinformed) structure and core
// allocation, and holds it to every check a placement decided under that
// database would have passed. Used by the No-Profiling ablation and the §5.2
// sensitivity experiment.
func reEvaluate(in *Input, decided *Result) *Result {
	in.ensurePrep()
	res := &Result{Assign: decided.Assign, Breaks: decided.Breaks}
	for ci, g := range in.Chains {
		res.Subgroups = append(res.Subgroups, computeSubgroupsSplit(in, ci, g, decided.Assign, decided.Breaks)...)
		res.NICUses = append(res.NICUses, computeNICUses(in, ci, g, decided.Assign)...)
	}
	if len(res.Subgroups) != len(decided.Subgroups) {
		res.Reason = "re-evaluation subgroup mismatch"
		return res
	}
	for i, sg := range res.Subgroups {
		sg.Cores = decided.Subgroups[i].Cores
	}
	newEvalScratch(in).finishResult(res, policyDecided)
	return res
}

// ReEvaluate is the exported wrapper used by experiments (profiling-error
// sensitivity: decide with a scaled DB, evaluate with the truth).
func ReEvaluate(in *Input, decided *Result) *Result {
	out := reEvaluate(in, decided)
	out.Scheme = decided.Scheme
	return out
}
