package placer

import (
	"fmt"
	"math"
	"slices"

	"lemur/internal/hw"
	"lemur/internal/lp"
)

// subRateBps is the chain-rate ceiling imposed by one subgroup: its cores'
// packet rate divided by the fraction of chain traffic it sees.
func (in *Input) subRateBps(sg *Subgroup) float64 {
	if sg.Cores <= 0 || sg.Cycles <= 0 || sg.Weight <= 0 {
		return 0
	}
	pps := float64(sg.Cores) * in.clockHz() / sg.Cycles
	return pps * in.frameBits() / sg.Weight
}

// nicRateBps is the chain-rate ceiling imposed by one SmartNIC-resident NF.
func (in *Input) nicRateBps(u *NICUse) float64 {
	if u.Cycles <= 0 || u.Weight <= 0 {
		return 0
	}
	nic := in.prep.nics[u.Device]
	if nic == nil {
		return 0
	}
	pps := nic.SpeedupVsServerCore * in.clockHz() / u.Cycles
	return pps * in.frameBits() / u.Weight
}

// chainCapBps is the estimated throughput of chain i under the placement:
// the minimum over its subgroup and SmartNIC ceilings (§3.2). Chains with
// no server/NIC component run at switch line rate, bounded by t_max and the
// ingress port via the LP.
func chainCapBps(in *Input, res *Result, chainIdx int) float64 {
	cap := math.Inf(1)
	for _, sg := range res.Subgroups {
		if sg.ChainIdx == chainIdx {
			cap = minF(cap, in.subRateBps(sg))
		}
	}
	for _, u := range res.NICUses {
		if u.ChainIdx == chainIdx {
			cap = minF(cap, in.nicRateBps(u))
		}
	}
	return cap
}

// coresToMeet returns the core count subgroup sg needs to support chain rate
// targetBps.
func (in *Input) coresToMeet(sg *Subgroup, targetBps float64) int {
	if targetBps <= 0 {
		return 1
	}
	ppsNeeded := targetBps * sg.Weight / in.frameBits()
	cores := int(math.Ceil(ppsNeeded * sg.Cycles / in.clockHz()))
	if cores < 1 {
		cores = 1
	}
	return cores
}

// lpLink is one device's link constraint: the device, its capacity, the
// traffic-weighted visits per chain (an LP row) and the capacity to spare
// once every chain's t_min is carried (the row's right-hand side).
type lpLink struct {
	dev        string
	cap, spare float64
	visits     []float64
}

// resetRows lays out the rate program's columns, one per live chain slot,
// sizes the scratch's row block for them — a row per column plus one per
// device that can carry a link constraint — and takes back every row and
// link handed out since the last call. A retired slot gets no column: its
// rate is zero, it visits no link, and carrying it would only add a
// degenerate pivot and a row and a column per slot ever retired.
func (ev *evalScratch) resetRows() {
	n := len(ev.in.Chains)
	ev.cols = ev.cols[:0]
	if ev.res.Retired != nil {
		ev.cols = slices.Grow(ev.cols, n)
		live := 0
		for ci := 0; ci < n; ci++ {
			c := -1
			if !ev.res.IsRetired(ci) {
				c, live = live, live+1
			}
			ev.cols = append(ev.cols, c)
		}
		n = live
	}
	ev.ncols = n
	if rows := n + len(ev.p.srvCores) + len(ev.p.nics); len(ev.flat) < rows*n {
		ev.flat = make([]float64, rows*n)
		ev.lpA, ev.lpB = make([][]float64, 0, rows), make([]float64, 0, rows)
		ev.links = make([]lpLink, 0, rows-n)
	}
	ev.flatUsed, ev.links = 0, ev.links[:0]
}

// col is chain slot ci's column in the rate program, -1 for a retired slot.
// With no slot retired the map is the identity and is never built.
func (ev *evalScratch) col(ci int) int {
	if len(ev.cols) == 0 {
		return ci
	}
	return ev.cols[ci]
}

// row hands out a zeroed LP row, one value per column, from the scratch's
// reusable block. Rows stay valid until the next resetRows.
func (ev *evalScratch) row() []float64 {
	n := ev.ncols
	r := ev.flat[ev.flatUsed : ev.flatUsed+n : ev.flatUsed+n]
	ev.flatUsed += n
	clear(r)
	return r
}

// addVisit adds weight w of chain's traffic to dev's link constraint.
// Devices number a handful, so a linear slice beats a map — and gives the
// program a deterministic constraint order. A retired slot's visit (it has
// none: retiring strips its subgroups and NIC uses) would carry rate zero
// and adds nothing.
func (ev *evalScratch) addVisit(dev string, cap float64, chain int, w float64) {
	li := 0
	for li < len(ev.links) && ev.links[li].dev != dev {
		li++
	}
	if li == len(ev.links) {
		ev.links = append(ev.links, lpLink{dev: dev, cap: cap, visits: ev.row()})
	}
	if c := ev.col(chain); c >= 0 {
		ev.links[li].visits[c] += w
	}
}

// linkRows builds ev.links, the per-device link constraints
// Σ m_{i,d}·r_i ≤ C_d of the scratch's subgroups and NIC uses, in order of
// first visit, against the given t_min vector (by column). The rate LP and
// the MILP both take their link rows from here (after resetRows), so the two
// programs cannot disagree on a link, or on row order.
func (ev *evalScratch) linkRows(tmin []float64) (string, bool) {
	in, res, p := ev.in, ev.res, ev.p
	for si, sg := range res.Subgroups {
		ev.addVisit(sg.Server, in.Topo.Servers[ev.srvOf[si]].NICs[0].CapacityBps, sg.ChainIdx, sg.Weight)
	}
	for _, u := range res.NICUses {
		nic := p.nics[u.Device]
		if nic == nil {
			return fmt.Sprintf("%v: smartnic %q", hw.ErrNotFound, u.Device), false
		}
		ev.addVisit(u.Device, nic.CapacityBps, u.ChainIdx, u.Weight)
	}
	for li := range ev.links {
		l := &ev.links[li]
		fixed := 0.0
		for i, m := range l.visits {
			fixed += m * tmin[i]
		}
		if fixed > l.cap+1e-6 {
			return fmt.Sprintf("link %s: t_min traffic %.3g bps exceeds capacity %.3g bps",
				l.dev, fixed, l.cap), false
		}
		l.spare = l.cap - fixed
	}
	return "", true
}

// solveLP builds and solves the marginal-throughput LP (§3.2) for the
// scratch's current subgroups, cores and NIC uses: maximize Σ(r_i − t_min)
// subject to t_min ≤ r_i ≤ min(capacity, t_max, ingress port) and per-device
// link constraints Σ m_{i,d}·r_i ≤ C_d, over the live chain slots only (see
// resetRows). It returns the solution (X in scratch memory, valid until the
// next call) and the t_min vector it was solved against, both by column, or
// the infeasibility reason.
func (ev *evalScratch) solveLP() (lp.Solution, []float64, string, bool) {
	in, res, p := ev.in, ev.res, ev.p
	ev.resetRows()
	// The objective and t_min vectors are fixed per input and shared from
	// the prep (lp.Solve copies, never mutates); with a slot retired, t_min
	// is gathered by column on the scratch.
	tmin := p.tmins
	if len(ev.cols) > 0 {
		ev.tmin = slices.Grow(ev.tmin[:0], ev.ncols)
		for ci, c := range ev.cols {
			if c >= 0 {
				ev.tmin = append(ev.tmin, tmin[ci])
			}
		}
		tmin = ev.tmin
	}
	A, B := ev.lpA[:0], ev.lpB[:0]
	for i, g := range in.Chains {
		c := ev.col(i)
		if c < 0 {
			continue
		}
		ub := minF(chainCapBps(in, res, i), g.Chain.SLO.TMaxBps)
		ub = minF(ub, in.Topo.Switch.PortCapacityBps) // ingress port
		if ub < tmin[c]-1e-6 {
			return lp.Solution{}, nil, fmt.Sprintf("chain %s: capacity %.3g bps < t_min %.3g bps",
				g.Chain.Name, ub, tmin[c]), false
		}
		// x_i = r_i - tmin_i <= ub - tmin.
		row := ev.row()
		row[c] = 1
		A, B = append(A, row), append(B, ub-tmin[c])
	}

	if reason, ok := ev.linkRows(tmin); !ok {
		return lp.Solution{}, nil, reason, false
	}
	for _, l := range ev.links {
		A, B = append(A, l.visits), append(B, l.spare)
	}
	ev.lpA, ev.lpB = A, B

	sol, err := lp.SolveInto(lp.Problem{C: p.ones[:ev.ncols], A: A, B: B}, ev.x)
	mLPSolves.Inc()
	if err != nil {
		return lp.Solution{}, nil, fmt.Sprintf("rate LP: %v", err), false
	}
	ev.x = sol.X
	mLPIterations.Observe(float64(sol.Iterations))
	mLPObjective.Observe(sol.Value)
	return sol, tmin, "", true
}

// solveRates solves the rate LP and, on success, fills the Result's
// ChainRates (scattered back from the columns; a retired slot's stays +0),
// Marginal and PredictedAggregate; on failure it returns the infeasibility
// reason.
func (ev *evalScratch) solveRates() (string, bool) {
	sol, tmin, reason, ok := ev.solveLP()
	if !ok {
		return reason, false
	}
	res := ev.res
	res.ChainRates = grown(res.ChainRates, len(ev.in.Chains))
	res.Marginal, res.PredictedAggregate = sol.Value, 0
	for i := range res.ChainRates {
		if c := ev.col(i); c >= 0 {
			res.ChainRates[i] = tmin[c] + sol.X[c]
		}
		res.PredictedAggregate += res.ChainRates[i]
	}
	return "", true
}

// grown resizes s to n zeroed elements, in place when its capacity allows
// (the scratch's own Result) and freshly otherwise (a heap Result).
func grown(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// allocPolicy is how finish chooses cores — the one step of the back half
// that legitimately differs between callers. The first four hand out spare
// cores over a whole fresh placement; the last three serve Results that
// arrive with some or all of their cores already decided.
type allocPolicy int

const (
	policyMarginal   allocPolicy = iota // Lemur/Optimal: best marginal gain first
	policyEven                          // HWPreferred/MinBounce: round-robin chains
	policySequential                    // Greedy: chain order, one chain at a time
	policyNone                          // NoCoreAlloc ablation: minimum only
	policyPinned                        // Reconfigure: only ev.fresh subgroups are written (allocateCoresReplace)
	policyDecided                       // ReEvaluate: every subgroup keeps the Cores it came with
	policyMILP                          // MILP: exact integer allocation on the given structure (allocateMILP)
)

// lpMarginal scores the current core allocation by solving the rate LP
// without touching the Result's rate fields. Returns -Inf when infeasible.
func (ev *evalScratch) lpMarginal() float64 {
	sol, _, _, ok := ev.solveLP()
	if !ok {
		return math.Inf(-1)
	}
	return sol.Value
}

// refineAllocation hill-climbs the greedy allocation: the per-core greedy
// maximizes chain capacity in isolation, but shared NIC links can make a
// core more valuable on another chain. Try single-core moves between
// subgroups on the same server, scored by the real LP, until no move
// improves the marginal.
func (ev *evalScratch) refineAllocation() {
	in, subs := ev.in, ev.res.Subgroups
	minCores := func(sg *Subgroup) int {
		if in.disableCoreScaling || !sg.Replicable {
			return 1
		}
		return in.coresToMeet(sg, in.Chains[sg.ChainIdx].Chain.SLO.TMinBps)
	}
	for iter := 0; iter < 64; iter++ {
		base := ev.lpMarginal()
		var bestDonor, bestRecip *Subgroup
		bestGain := 1e5 // require a meaningful (0.1 Kbps) improvement
		for _, donor := range subs {
			if donor.Cores <= minCores(donor) {
				continue
			}
			for _, recip := range subs {
				if recip == donor || !recip.Replicable || recip.Server != donor.Server {
					continue
				}
				donor.Cores--
				recip.Cores++
				if m := ev.lpMarginal(); m-base > bestGain {
					bestGain = m - base
					bestDonor, bestRecip = donor, recip
				}
				donor.Cores++
				recip.Cores--
			}
		}
		if bestDonor == nil {
			return
		}
		bestDonor.Cores--
		bestRecip.Cores++
	}
}

// chargeCores resets the core ledger and charges every subgroup's current
// Cores to its server. It returns the lowest-index server over budget, or
// -1: servers are checked in topology order so that the reason reported
// when several overflow is a function of the input alone.
func (ev *evalScratch) chargeCores() int {
	ev.used = append(ev.used[:0], make([]int, len(ev.p.srvCores))...)
	for si, sg := range ev.res.Subgroups {
		ev.used[ev.srvOf[si]] += sg.Cores
	}
	for o, u := range ev.used {
		if u > ev.p.srvCores[o] {
			return o
		}
	}
	return -1
}

// tminShortfall is why raiseToTMin refused, not yet put into words: sg could
// not be raised to its chain's t_min, either because it needs `need` cores
// and is not replicable or (need 0) because its server ran out. A search
// reports one reason — the first in enumeration order — out of thousands of
// refused candidates, so the words are left to evalScratch.reason.
type tminShortfall struct {
	sg   *Subgroup
	need int
}

func (s tminShortfall) String() string {
	if s.need > 0 {
		return fmt.Sprintf("subgroup %s: needs %d cores for t_min but is not replicable", s.sg.Name(), s.need)
	}
	return fmt.Sprintf("server %s: out of cores raising %s to t_min", s.sg.Server, s.sg.Name())
}

// raiseToTMin gives every subgroup (only those marked, when only is
// non-nil) the cores its chain's t_min needs, from the full budget: SLO
// feasibility outranks the admission-headroom reserve. It fails, leaving the
// reason in ev.short, when a non-replicable subgroup needs more than one
// core or a server runs out.
func (ev *evalScratch) raiseToTMin(only []bool) bool {
	in, budget, used, srvOf := ev.in, ev.p.srvCores, ev.used, ev.srvOf
	for si, sg := range ev.res.Subgroups {
		if only != nil && !only[si] {
			continue
		}
		need := in.coresToMeet(sg, in.Chains[sg.ChainIdx].Chain.SLO.TMinBps)
		if need > 1 && !sg.Replicable {
			ev.short = tminShortfall{sg, need}
			return false
		}
		for sg.Cores < need {
			if used[srvOf[si]] >= budget[srvOf[si]] {
				ev.short = tminShortfall{sg, 0}
				return false
			}
			sg.Cores++
			used[srvOf[si]]++
		}
	}
	return true
}

// allocateCores assigns cores to subgroups. For a fresh placement: one core
// each, raised to meet t_min (SLO-aware policies only), then spare cores per
// policy; the pinned, decided and MILP policies are dispatched first. It
// returns an infeasibility reason when minimums cannot be met.
func (ev *evalScratch) allocateCores(policy allocPolicy) (string, bool) {
	in, res, subs := ev.in, ev.res, ev.res.Subgroups
	budget, srvOf := ev.p.srvCores, ev.srvOf
	switch policy {
	case policyDecided:
		// Pinned with nothing fresh: the ledger is charged and checked, no
		// subgroup is written.
		ev.fresh = append(ev.fresh[:0], make([]bool, len(subs))...)
		fallthrough
	case policyPinned:
		return ev.allocateCoresReplace()
	case policyMILP:
		return ev.allocateMILP()
	}

	// Mandatory single core per subgroup.
	for _, sg := range subs {
		sg.Cores = 1
	}
	if o := ev.chargeCores(); o >= 0 {
		return fmt.Sprintf("server %s: %d subgroups need %d cores, has %d",
			in.Topo.Servers[o].Name, ev.used[o], ev.used[o], budget[o]), false
	}
	used := ev.used

	// Raise to meet t_min where the policy is SLO-aware. Even/none policies
	// skip this (they are not SLO-driven), matching the baselines.
	if sloAware := policy == policyMarginal || policy == policySequential; sloAware && !in.disableCoreScaling {
		if !ev.raiseToTMin(nil) {
			return "", false // the reason is ev.short
		}
	}

	if policy == policyNone || in.disableCoreScaling {
		return "", true
	}

	// Discretionary cores honor the admission-headroom reserve; the t_min
	// raise above does not (SLO feasibility outranks future admissions).
	spare := func(si int) int { return budget[srvOf[si]] - in.HeadroomCores - used[srvOf[si]] }
	give := func(si int) bool {
		if !subs[si].Replicable || spare(si) <= 0 {
			return false
		}
		subs[si].Cores++
		used[srvOf[si]]++
		return true
	}

	switch policy {
	case policyMarginal:
		// Repeatedly apply the composite move with the best gain per core:
		// raising a chain to its next capacity breakpoint requires one core
		// in *every* subgroup tied at the bottleneck, so moves are
		// evaluated per chain, not per subgroup (single-core probing sees
		// zero gain whenever two subgroups tie).
		for {
			ev.bestAdds = ev.bestAdds[:0]
			bestPerCore := 1e3 // require > ~1 Kbps/core
			for ci, g := range in.Chains {
				cap := minF(chainCapBps(in, res, ci), g.Chain.SLO.TMaxBps)
				if cap >= g.Chain.SLO.TMaxBps {
					continue
				}
				adds := ev.adds[:0]
				stuck := false
				for si, sg := range subs {
					if sg.ChainIdx != ci {
						continue
					}
					if in.subRateBps(sg) <= cap*1.000001 {
						if !sg.Replicable || spare(si) <= 0 {
							stuck = true
							break
						}
						adds = append(adds, si)
					}
				}
				ev.adds = adds
				if stuck || len(adds) == 0 {
					continue
				}
				for _, si := range adds {
					subs[si].Cores++
				}
				after := minF(chainCapBps(in, res, ci), g.Chain.SLO.TMaxBps)
				for _, si := range adds {
					subs[si].Cores--
				}
				if perCore := (after - cap) / float64(len(adds)); perCore > bestPerCore {
					bestPerCore = perCore
					ev.bestAdds = append(ev.bestAdds[:0], adds...)
				}
			}
			if len(ev.bestAdds) == 0 {
				break
			}
			ok := true
			for _, si := range ev.bestAdds {
				if !give(si) {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		ev.refineAllocation()
	case policyEven:
		// Round-robin chains; within a chain, rotate its replicable
		// subgroups; stop when a full sweep places nothing.
		cursor := make([]int, len(in.Chains))
		for {
			placed := false
			for ci := range in.Chains {
				repl := ev.adds[:0]
				for si, sg := range subs {
					if sg.ChainIdx == ci && sg.Replicable {
						repl = append(repl, si)
					}
				}
				ev.adds = repl
				if len(repl) == 0 {
					continue
				}
				for try := 0; try < len(repl); try++ {
					si := repl[cursor[ci]%len(repl)]
					cursor[ci]++
					if give(si) {
						placed = true
						break
					}
				}
			}
			if !placed {
				break
			}
		}
	case policySequential:
		// Greedy: chains in index order; pour cores into each chain's
		// bottleneck until t_max or no further gain, then move on.
		for ci, g := range in.Chains {
			for {
				cap := chainCapBps(in, res, ci)
				if cap >= g.Chain.SLO.TMaxBps {
					break
				}
				bottleneck := -1
				bottleRate := math.Inf(1)
				for si, sg := range subs {
					if sg.ChainIdx != ci {
						continue
					}
					if r := in.subRateBps(sg); r < bottleRate {
						bottleRate, bottleneck = r, si
					}
				}
				if bottleneck < 0 || !give(bottleneck) {
					break
				}
			}
		}
	}
	return "", true
}
