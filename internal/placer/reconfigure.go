package placer

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"lemur/internal/hw"
	"lemur/internal/nfgraph"
	"lemur/internal/obs"
)

// NodeSet names failed devices (servers or SmartNICs) by topology name.
type NodeSet map[string]bool

// NewNodeSet builds a set from device names.
func NewNodeSet(names ...string) NodeSet {
	s := make(NodeSet, len(names))
	for _, n := range names {
		s[n] = true
	}
	return s
}

// Names returns the members sorted, for deterministic rendering.
func (s NodeSet) Names() []string {
	out := make([]string, 0, len(s))
	for n := range s {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Expand resolves the effective dead set against a topology: named devices
// that actually exist, plus every SmartNIC hosted on a failed server (a NIC
// cannot outlive its host). Unknown names drop out, so callers may pass
// arbitrary strings (the fuzzer does).
func (s NodeSet) Expand(topo *hw.Topology) NodeSet {
	out := NodeSet{}
	for _, srv := range topo.Servers {
		if s[srv.Name] {
			out[srv.Name] = true
		}
	}
	for _, nic := range topo.SmartNICs {
		if s[nic.Name] || out[nic.HostServer] {
			out[nic.Name] = true
		}
	}
	return out
}

// errInfeasible is what Report.Err wraps, with the concrete reason, when no
// pin-preserving placement exists for a delta. Callers distinguish "the rack
// cannot absorb this change" from API misuse with errors.Is.
var errInfeasible = errors.New("placer: no feasible re-placement")

// AffectedChains returns, in chain order, the indices of chains whose
// previous placement traverses any failed device (every subgroup and NIC use
// is bound through its nodes' assignments, so those are what it scans). Only
// these chains and the admitted ones are re-solved by Reconfigure; the rest
// are pinned.
func AffectedChains(in *Input, prev *Result, failed NodeSet) []int {
	var out []int
	for ci, g := range in.Chains {
		for _, n := range g.Order {
			if a, ok := prev.Assign[n]; ok && a.Device != "" && failed[a.Device] {
				out = append(out, ci)
				break
			}
		}
	}
	return out
}

// Delta is one change request against a running placement. Its parts
// combine freely; the zero Delta asks for a pure re-validation.
type Delta struct {
	// Admit names the newly arrived chains: the contiguous tail of the
	// input's Chains, ascending. Chains already running keep their pointers
	// and indices (the index fixes the SPI range, so slots are append-only).
	Admit []int
	// Retire names the departed chain slots. A slot is never reused: it
	// stays, marked in Result.Retired and stripped of every resource.
	Retire []int
	// Failed names every dead device, cumulatively: the input keeps its full
	// topology and the solve runs on what Failed.Expand leaves of it.
	Failed NodeSet
}

// Repairs reports whether the failure kind is present: devices failed, or
// the delta is empty — a re-validation counts as a zero-failure repair, as
// Replace with no failures always has. Together with len(Admit) and
// len(Retire) it decides which per-kind counters one call bumps.
func (d Delta) Repairs() bool { return len(d.Failed) > 0 || len(d.Admit)+len(d.Retire) == 0 }

// AdmitOutcome classifies how (or whether) a delta was satisfied.
type AdmitOutcome int

// Outcomes, in decreasing order of desirability.
const (
	// AdmitIncremental: the delta was placed with every untouched chain's
	// subgroups pinned by pointer — zero disruption to their traffic.
	AdmitIncremental AdmitOutcome = iota
	// AdmitRepack: no pin-preserving placement exists, but a full re-solve
	// over all active chains is feasible. Applying it is disruptive (every
	// chain's dataplane state moves); the caller decides.
	AdmitRepack
	// AdmitInfeasible: the rack cannot absorb the delta at any disruption
	// level the placer offers.
	AdmitInfeasible
)

// String renders the outcome for reports and tables.
func (o AdmitOutcome) String() string {
	switch o {
	case AdmitIncremental:
		return "incremental"
	case AdmitRepack:
		return "full-repack"
	case AdmitInfeasible:
		return "infeasible"
	}
	return fmt.Sprintf("AdmitOutcome(%d)", int(o))
}

// Report is Reconfigure's three-way answer: feasible-with-pins, feasible
// only with a full repack, or infeasible — plus the evidence for each.
type Report struct {
	// Outcome is the verdict.
	Outcome AdmitOutcome

	// Result is the pin-preserving incremental placement. Set only when
	// Outcome is AdmitIncremental; every untouched chain's *Subgroup and
	// *NICUse pointers are reused verbatim from prev.
	Result *Result

	// Affected lists, in chain order, the chains whose previous placement
	// traversed a failed device: with the admitted tail, the chains the
	// incremental attempt re-solved.
	Affected []int

	// Repack is the disruptive full re-solve over all active chains plus the
	// admitted ones, on the surviving hardware. Set when Outcome is
	// AdmitRepack. It is solved against RepackInput, whose chain slots may
	// be compacted (retired slots dropped); RepackChains maps each repack
	// slot back to the original chain index (admitted chains map to their
	// index in the grown input).
	Repack       *Result
	RepackInput  *Input
	RepackChains []int

	// PinnedSubgroups counts prev subgroups carried by pointer into Result
	// (0 unless Outcome is AdmitIncremental).
	PinnedSubgroups int

	// IncrementalReason is why the pin-preserving attempt failed, when it
	// did (empty for AdmitIncremental).
	IncrementalReason string
}

// Err is nil for an incremental verdict and otherwise wraps errInfeasible
// with the reason the pin-preserving attempt failed.
func (r *Report) Err() error {
	if r.Outcome == AdmitIncremental {
		return nil
	}
	return fmt.Errorf("%w: %s", errInfeasible, r.IncrementalReason)
}

var (
	mReplaceCalls = obs.C("lemur_placer_replace_total")
	mReplacePins  = obs.H("lemur_placer_replace_pinned_subgroups")
	mAdmitCalls   = obs.C("lemur_placer_admit_total")
	mAdmitPins    = obs.H("lemur_placer_admit_pinned_subgroups")
	mRetireCalls  = obs.C("lemur_placer_retire_total")
)

// Reconfigure is the one incremental door: it applies a Delta — chains
// retired, chains admitted, devices failed, in any combination — to a
// running placement without disturbing what the delta does not touch. in is
// prev's input, grown in place by the admitted tail.
//
// Retired chains are stripped first, so what they held is free for the rest
// of the call. The touched chains — those whose previous placement traverses
// a dead device, plus the admitted ones — are re-solved on the surviving
// topology from the core budget the other chains leave. Every untouched
// chain's *Subgroup and *NICUse values are reused — same pointers, never
// mutated — so downstream per-subgroup state (metacompiler shares, simulator
// queues) survives. With nothing touched the call is one re-validation pass.
//
// Every candidate, the re-validation included, leaves through the same
// finish as a fresh placement: stages, cores, d_max, the rate LP over the
// whole chain set and the d_max_p99 tail check, so the door enforces exactly
// the SLOs Place enforces and its Result carries PredictedP99Sec. The rate LP
// is not tail-aware: when a retirement or failure frees link capacity it may
// lift a pinned tail-bounded chain to ρ = 1, and the delta is then refused
// with the p99 reason — what Place answers for the same final chain set.
//
// When no pin-preserving placement exists and the delta admits chains, a
// full re-solve of all active chains under prev.Scheme decides between
// AdmitRepack (reported, never applied: the caller chooses whether the
// disruption is worth it) and AdmitInfeasible. A failure or retirement that
// pins cannot absorb is AdmitInfeasible outright: the caller asked for a
// repair, not a re-plan.
//
// Reconfigure is deterministic. The error return is reserved for API misuse
// (malformed inputs); placement failure is reported in the Outcome.
func Reconfigure(prev *Result, in *Input, d Delta) (*Report, error) {
	if prev == nil || in == nil || !prev.Feasible {
		return nil, errors.New("placer: Reconfigure needs an input and a feasible previous result")
	}
	if err := in.validate(); err != nil {
		return nil, err
	}
	nOld := len(in.Chains) - len(d.Admit)
	if nOld != len(prev.ChainRates) {
		return nil, fmt.Errorf("placer: Reconfigure: input has %d chains, previous result covers %d, %d admitted",
			len(in.Chains), len(prev.ChainRates), len(d.Admit))
	}
	for i, ci := range d.Admit {
		if ci != nOld+i {
			return nil, fmt.Errorf("placer: Reconfigure: admitted chains must be the contiguous tail [%d,%d), got %v",
				nOld, len(in.Chains), d.Admit)
		}
	}
	for _, ci := range d.Retire {
		if ci < 0 || ci >= nOld || prev.IsRetired(ci) {
			return nil, fmt.Errorf("placer: Reconfigure: chain %d is out of range [0,%d) or already retired", ci, nOld)
		}
	}
	in.ensurePrep()
	if d.Repairs() {
		mReplaceCalls.Inc()
	}
	if len(d.Admit) > 0 {
		mAdmitCalls.Inc()
	}
	if len(d.Retire) > 0 {
		mRetireCalls.Inc()
	}
	sp := obs.Span("placer.reconfigure").SetAttrInt("admit", len(d.Admit)).
		SetAttrInt("retire", len(d.Retire)).SetAttrInt("failed", len(d.Failed))

	rep := &Report{}
	base := retiring(prev, in, d.Retire)
	rin, dead, reason := surviving(in, d.Failed)
	if reason == "" {
		rep.Result, rep.Affected, reason = solveIncremental(base, rin, dead, d.Retire, d.Admit)
	}

	switch {
	case rep.Result != nil:
		rep.Result.Scheme = prev.Scheme
		kept := make(map[*Subgroup]bool, len(rep.Result.Subgroups))
		for _, sg := range rep.Result.Subgroups {
			kept[sg] = true
		}
		for _, sg := range prev.Subgroups {
			if kept[sg] {
				rep.PinnedSubgroups++
			}
		}
		if d.Repairs() {
			mReplacePins.Observe(float64(rep.PinnedSubgroups))
		}
		if len(d.Admit) > 0 {
			mAdmitPins.Observe(float64(rep.PinnedSubgroups))
		}
	case rin != nil && len(d.Admit) > 0:
		// Full repack: re-solve every active (non-retired) chain plus the
		// admitted ones from scratch under the previous scheme. Retired
		// slots are compacted away — a repack renumbers chains anyway.
		rep.Outcome, rep.IncrementalReason = AdmitInfeasible, reason
		rep.RepackInput, rep.RepackChains = compactInput(rin, base)
		full, err := Place(prev.Scheme, rep.RepackInput)
		if err != nil {
			sp.SetAttr("error", err.Error()).End()
			return nil, err
		}
		if full.Feasible {
			rep.Outcome, rep.Repack = AdmitRepack, full
		}
	default:
		rep.Outcome, rep.IncrementalReason = AdmitInfeasible, reason
	}
	if len(d.Admit) > 0 {
		obs.C("lemur_placer_admit_outcome_total", obs.L("outcome", rep.Outcome.String())).Inc()
	}
	sp.SetAttr("outcome", rep.Outcome.String()).SetAttrInt("pinned_subgroups", rep.PinnedSubgroups).End()
	return rep, nil
}

// retiring returns prev as the call carries it: prev itself when nothing
// retires, otherwise a copy whose Retired marks the gone slots and whose
// Assign has lost their nodes. Its Subgroups, NICUses and Breaks still list
// the gone chains: the solve re-derives those chains from the assignment,
// like touched ones, and without one they come out owning nothing.
func retiring(prev *Result, in *Input, retire []int) *Result {
	if len(retire) == 0 {
		return prev
	}
	base := *prev
	base.Assign, base.Retired = cloneAssign(prev.Assign), make([]bool, len(in.Chains))
	copy(base.Retired, prev.Retired)
	for _, ci := range retire {
		base.Retired[ci] = true
		for _, n := range in.Chains[ci].Order {
			delete(base.Assign, n)
		}
	}
	return &base
}

// surviving returns the input a delta is solved on and the expanded dead
// set: in itself when nothing it names is dead, otherwise a copy over the
// surviving servers and SmartNICs, same specs. The copy's prep shares the
// chain half and, the switch being the same, the stage memo; the cut
// topology and its half are the prep family's, cut once per dead set (see
// prepFamily.survivors). A non-empty reason (the ToR died, no server is left)
// means there is nothing to solve on.
func surviving(in *Input, failed NodeSet) (*Input, NodeSet, string) {
	if failed[in.Topo.Switch.Name] {
		return nil, nil, fmt.Sprintf("ToR switch %s failed (all traffic enters via the ToR)", in.Topo.Switch.Name)
	}
	if len(failed) == 0 {
		return in, nil, ""
	}
	dead, half := in.prep.fam.survivors(in.Topo, failed)
	switch {
	case len(dead) == 0:
		return in, dead, ""
	case half == nil:
		return nil, nil, "no servers survive"
	}
	rin := *in
	rin.Topo = half.topo
	rin.prep = &inputPrep{chainPrep: in.prep.chainPrep, topoPrep: half, stage: in.prep.stage}
	return &rin, dead, ""
}

// solveIncremental runs the pin-preserving attempt on the surviving input:
// base is the running placement as the call carries it (see retiring), dead
// the expanded failure set, retire and admit the delta's slots. It returns
// the best feasible candidate by marginal (ties to the earlier variant) or
// the first failure reason, and the failure-affected chains either way.
func solveIncremental(base *Result, rin *Input, dead NodeSet, retire, admit []int) (*Result, []int, string) {
	affected := AffectedChains(rin, base, dead)
	// Affected chains predate the admitted tail, so touched stays ascending.
	touched := append(affected[:len(affected):len(affected)], admit...)
	// moved marks every chain whose subgroups and NIC uses are re-derived
	// from the assignment rather than carried: the touched and the retired.
	moved := make([]bool, len(rin.Chains))
	for _, ci := range retire {
		moved[ci] = true
	}
	for _, ci := range touched {
		moved[ci] = true
	}
	ev := rin.takeScratch() // one scratch serves every candidate of the call
	defer rin.putScratch(ev)
	// Break marks: pinned chains keep theirs; touched chains are retried
	// with and without split marks, like the heuristic's two variants.
	pinned := pinnedBreaks(rin, base.Breaks, moved)
	if len(touched) == 0 {
		// Nothing to re-solve: re-check what base carries. The switch program
		// can only have lost tables (Stages records the reclaimed verdict), the
		// rate LP redistributes any released link capacity and the tail check
		// judges the chains at their new rates.
		res, reason := assembleReplace(ev, base, base.Assign, pinned, moved)
		return res, nil, reason
	}

	var best *Result
	firstReason := ""
	note := func(reason string) {
		if firstReason == "" {
			firstReason = reason
		}
	}
	// Seeds: the admitted chains' baseline platform variants on top of what
	// base assigns (one seed when nothing is admitted).
	for _, assign := range baselineAssigns(rin, base.Assign, admit) {
		if reason := rehomeDead(rin, assign, affected, dead); reason != "" {
			note(reason)
			continue
		}
		// The combined switch program must still fit; if re-homing or the
		// new chains pushed it past its stages, evict — from moved chains
		// only.
		if reason, ok := evictUntilFits(ev, assign, moved); !ok {
			note(reason)
			continue
		}
		// Bind unbound server nodes: a chain stays whole on one server.
		bindReplaced(rin, base, assign, touched, moved)
		bindNICs(rin, assign)
		for _, withSplits := range []bool{false, true} {
			breaks := pinned
			if withSplits {
				if breaks = splitBreaks(rin, assign, touched, pinned); breaks == nil {
					continue // no marks: identical to the no-split variant
				}
			}
			res, reason := assembleReplace(ev, base, assign, breaks, moved)
			if reason != "" {
				note(reason)
				continue
			}
			if best == nil || res.Marginal > best.Marginal+1e-6 {
				best = res
			}
		}
	}
	return best, affected, firstReason
}

// rehomeDead moves, in place, every node of the affected chains that sat on
// a dead device to a surviving platform: server first (cores are fungible),
// then a surviving SmartNIC, then the switch (the stage check arbitrates).
// PISA and surviving-device assignments stay. The empty reason means success.
func rehomeDead(rin *Input, assign map[*nfgraph.Node]Assign, affected []int, dead NodeSet) string {
	for _, ci := range affected {
		for _, n := range rin.Chains[ci].Order {
			a, ok := assign[n]
			if !ok || a.Platform == hw.PISA || (a.Device != "" && !dead[a.Device]) {
				continue
			}
			switch {
			case rin.allows(n, hw.Server):
				assign[n] = Assign{Platform: hw.Server}
			case rin.allows(n, hw.SmartNIC):
				assign[n] = Assign{Platform: hw.SmartNIC}
			case rin.allows(n, hw.PISA):
				assign[n] = Assign{Platform: hw.PISA, Device: rin.Topo.Switch.Name}
			default:
				return fmt.Sprintf("nf %s has no surviving platform", n.Name())
			}
		}
	}
	return ""
}

// bindReplaced binds the touched chains' unbound server nodes, one server
// per chain, favouring a server the chain already uses and then the one with
// the most free cores after the pinned chains' allocations.
func bindReplaced(rin *Input, prev *Result, assign map[*nfgraph.Node]Assign, touched []int, moved []bool) {
	p := rin.prep
	free := append([]int(nil), p.srvCores...)
	for _, sg := range prev.Subgroups {
		if o, ok := p.srvOrd[sg.Server]; ok && !moved[sg.ChainIdx] {
			free[o] -= sg.Cores
		}
	}

	// Most demanding chains bind first, mirroring bindServers.
	type demand struct{ chain, cores int }
	demands := make([]demand, 0, len(touched))
	for _, ci := range touched {
		g := rin.Chains[ci]
		probe := make(map[*nfgraph.Node]Assign, len(g.Order))
		for _, n := range g.Order {
			if a, ok := assign[n]; ok {
				if a.Platform == hw.Server {
					a.Device = "" // surviving bindings must not split the probe's runs
				}
				probe[n] = a
			}
		}
		demands = append(demands, demand{ci, rin.tminDemand(g, computeSubgroups(rin, ci, g, probe))})
	}
	sort.SliceStable(demands, func(i, j int) bool { return demands[i].cores > demands[j].cores })

	for _, d := range demands {
		order := rin.Chains[d.chain].Order
		target := 0
		for o := range free {
			if free[o] > free[target] {
				target = o
			}
		}
		// A server this chain still uses (surviving bound nodes) wins.
		for _, n := range order {
			if a, ok := assign[n]; ok && a.Platform == hw.Server && a.Device != "" {
				target = p.srvOrd[a.Device]
				break
			}
		}
		for _, n := range order {
			if a, ok := assign[n]; ok && a.Platform == hw.Server {
				a.Device = rin.Topo.Servers[target].Name
				assign[n] = a
			}
		}
		free[target] -= d.cores
	}
}

// pinnedBreaks keeps the break marks on the chains moved does not mark (the
// ones that stay put). nil in, nil out.
func pinnedBreaks(in *Input, breaks map[*nfgraph.Node]bool, moved []bool) map[*nfgraph.Node]bool {
	if len(breaks) == 0 {
		return nil
	}
	var out map[*nfgraph.Node]bool
	for ci, g := range in.Chains {
		if moved[ci] {
			continue
		}
		for _, n := range g.Order {
			if breaks[n] {
				if out == nil {
					out = make(map[*nfgraph.Node]bool)
				}
				out[n] = true
			}
		}
	}
	return out
}

// assembleReplace builds the combined Result — pinned chains reuse their
// previous *Subgroup/*NICUse values verbatim, moved chains get fresh ones
// (none, for a retired chain: it has no assignments left) — and sends it
// through finish under the pinned policy: cores go to the fresh subgroups
// only, and the full chain set passes every check a fresh placement passes
// (stages, d_max, rate LP, d_max_p99). ev is the call's scratch, over the
// surviving topology. The empty reason means success.
func assembleReplace(ev *evalScratch, prev *Result, assign map[*nfgraph.Node]Assign, breaks map[*nfgraph.Node]bool, moved []bool) (*Result, string) {
	rin := ev.in
	res := &Result{Assign: assign, Breaks: breaks, Retired: prev.Retired}
	ev.fresh = ev.fresh[:0]
	for ci, g := range rin.Chains {
		if moved[ci] {
			res.Subgroups = append(res.Subgroups, computeSubgroupsSplit(rin, ci, g, assign, breaks)...)
			res.NICUses = append(res.NICUses, computeNICUses(rin, ci, g, assign)...)
		} else {
			for _, sg := range prev.Subgroups {
				if sg.ChainIdx == ci {
					res.Subgroups = append(res.Subgroups, sg)
				}
			}
			for _, u := range prev.NICUses {
				if u.ChainIdx == ci {
					res.NICUses = append(res.NICUses, u)
				}
			}
		}
		for len(ev.fresh) < len(res.Subgroups) {
			ev.fresh = append(ev.fresh, moved[ci])
		}
	}
	// The switch program spans all chains; the stage memo still applies
	// (same switch, same chain set).
	if ev.finishResult(res, policyPinned); !res.Feasible {
		return nil, res.Reason
	}
	return res, ""
}

// allocateCoresReplace is finish's policyPinned arm: it allocates cores to the
// fresh subgroups (ev.fresh) from the budget left by the pinned ones, which
// keep their previous Cores — the pinning invariant says they are never
// written. Fresh subgroups get one core, are raised to meet t_min, then
// spare cores go to each touched chain's bottleneck until t_max, per chain
// in index order.
func (ev *evalScratch) allocateCoresReplace() (string, bool) {
	rin, res, subs, fresh := ev.in, ev.res, ev.res.Subgroups, ev.fresh
	budget, srvOf := ev.p.srvCores, ev.srvOf
	for si, sg := range subs {
		if fresh[si] {
			sg.Cores = 1
		}
	}
	if o := ev.chargeCores(); o >= 0 {
		return fmt.Sprintf("server %s: needs %d cores, has %d",
			rin.Topo.Servers[o].Name, ev.used[o], budget[o]), false
	}
	used := ev.used
	if !ev.raiseToTMin(fresh) {
		return "", false // the reason is ev.short
	}

	// Spare cores: pour into each touched chain's bottleneck (fresh
	// subgroups only — pinned ones are immutable). Discretionary cores honor
	// the admission-headroom reserve so that a rack placed with headroom
	// keeps it across successive admissions.
	done := -1 // subgroups are grouped by ascending chain index
	for si, sg := range subs {
		ci := sg.ChainIdx
		if !fresh[si] || ci <= done {
			continue
		}
		done = ci
		g := rin.Chains[ci]
		for {
			cap := chainCapBps(rin, res, ci)
			if cap >= g.Chain.SLO.TMaxBps {
				break
			}
			bottleneck := -1
			bottleRate := math.Inf(1)
			for ti, c := range subs {
				if c.ChainIdx != ci || !fresh[ti] {
					continue
				}
				if r := rin.subRateBps(c); r < bottleRate {
					bottleRate, bottleneck = r, ti
				}
			}
			if bottleneck < 0 || !subs[bottleneck].Replicable {
				break
			}
			o := srvOf[bottleneck]
			// Only grow when a core is to spare and the bottleneck actually
			// caps the chain (a pinned subgroup or NIC may be the real limit).
			if budget[o]-rin.HeadroomCores-used[o] <= 0 || bottleRate > cap*1.000001 {
				break
			}
			subs[bottleneck].Cores++
			used[o]++
			if chainCapBps(rin, res, ci) <= cap*1.000001 {
				subs[bottleneck].Cores--
				used[o]--
				break
			}
		}
	}
	return "", true
}

// compactInput builds the repack input: a copy of in whose Chains hold only
// the active (non-retired) chains, in original order, plus the mapping from
// repack slot to original chain index. The copy keeps in's prep, so its own
// is derived in the same family: the chains before the first retired slot
// keep their entries whole, the later ones have their table names renumbered.
func compactInput(in *Input, prev *Result) (*Input, []int) {
	cp := *in
	cp.Chains = nil
	var idx []int
	for ci, g := range in.Chains {
		if !prev.IsRetired(ci) {
			cp.Chains = append(cp.Chains, g)
			idx = append(idx, ci)
		}
	}
	return &cp, idx
}
