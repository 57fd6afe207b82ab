package placer

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

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

// Has reports membership.
func (s NodeSet) Has(name string) bool { return s[name] }

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

// ErrInfeasible is returned (wrapped, with the concrete reason) when no
// SLO-meeting re-placement exists on the surviving hardware. It is the only
// error Replace returns for a well-formed call; callers distinguish "the
// rack cannot absorb this failure" from API misuse with errors.Is.
var ErrInfeasible = errors.New("placer: no feasible re-placement")

// AffectedChains returns, in chain order, the indices of chains whose
// previous placement traverses any failed device. Only these chains are
// re-solved by Replace; the rest are pinned.
func AffectedChains(in *Input, prev *Result, failed NodeSet) []int {
	aff := make([]bool, len(in.Chains))
	for _, sg := range prev.Subgroups {
		if sg.ChainIdx < len(aff) && failed[sg.Server] {
			aff[sg.ChainIdx] = true
		}
	}
	for _, u := range prev.NICUses {
		if u.ChainIdx < len(aff) && failed[u.Device] {
			aff[u.ChainIdx] = true
		}
	}
	// Assignments outside any subgroup/NICUse (defensive: unbound nodes).
	for ci, g := range in.Chains {
		if aff[ci] {
			continue
		}
		for _, n := range g.Order {
			if a, ok := prev.Assign[n]; ok && a.Device != "" && failed[a.Device] {
				aff[ci] = true
				break
			}
		}
	}
	var out []int
	for ci, a := range aff {
		if a {
			out = append(out, ci)
		}
	}
	return out
}

var (
	mReplaceCalls = obs.C("lemur_placer_replace_total")
	mReplacePins  = obs.H("lemur_placer_replace_pinned_subgroups")
)

// Replace computes an incremental placement after the devices in failed
// die. Chains whose previous placement avoids every failed device are
// pinned: their *Subgroup and *NICUse values are reused — same pointers,
// never mutated — so downstream per-subgroup state (metacompiler shares,
// simulator queues) survives the transition. Only chains that traversed a
// failed device are re-solved, against the surviving topology and the core
// budget left over by the pinned chains.
//
// With an empty failed set Replace is a pure re-validation: the returned
// Result is byte-identical to prev (modulo PlaceTime). On placement
// failure it returns an error wrapping ErrInfeasible.
func Replace(prev *Result, in *Input, failed NodeSet) (*Result, error) {
	if prev == nil || in == nil {
		return nil, errors.New("placer: Replace needs a previous result and an input")
	}
	if !prev.Feasible {
		return nil, errors.New("placer: Replace needs a feasible previous result")
	}
	if err := in.Topo.Validate(); err != nil {
		return nil, err
	}
	in.ensurePrep()
	start := time.Now()
	mReplaceCalls.Inc()

	dead := failed.Expand(in.Topo)
	if in.Topo.Switch != nil && failed[in.Topo.Switch.Name] {
		return nil, fmt.Errorf("%w: ToR switch %s failed (all traffic enters via the ToR)",
			ErrInfeasible, in.Topo.Switch.Name)
	}

	// Reduced topology: surviving servers and SmartNICs, same specs. Its
	// prep shares the chain half and, the switch being the same, the stage
	// memo; only the server and SmartNIC indices are rebuilt.
	rin := *in
	if len(dead) > 0 {
		rt := *in.Topo
		rt.Servers = nil
		for _, s := range in.Topo.Servers {
			if !dead[s.Name] {
				rt.Servers = append(rt.Servers, s)
			}
		}
		rt.SmartNICs = nil
		for _, n := range in.Topo.SmartNICs {
			if !dead[n.Name] {
				rt.SmartNICs = append(rt.SmartNICs, n)
			}
		}
		if len(rt.Servers) == 0 {
			return nil, fmt.Errorf("%w: no servers survive", ErrInfeasible)
		}
		rin.Topo = &rt
		rin.ensurePrep()
	}

	affected := AffectedChains(in, prev, dead)
	isAffected := make([]bool, len(in.Chains))
	for _, ci := range affected {
		isAffected[ci] = true
	}

	// Re-home the affected chains' nodes: keep PISA and surviving-device
	// assignments, move dead-device nodes to a surviving platform.
	assign := cloneAssign(prev.Assign)
	for _, ci := range affected {
		for _, n := range in.Chains[ci].Order {
			a, ok := assign[n]
			if !ok {
				continue
			}
			if a.Platform == hw.PISA || (a.Device != "" && !dead[a.Device]) {
				continue
			}
			na, reason := rehome(&rin, n)
			if reason != "" {
				return nil, fmt.Errorf("%w: %s", ErrInfeasible, reason)
			}
			assign[n] = na
		}
	}

	// The combined switch program must still fit; if re-homing pushed nodes
	// onto the switch past its stages, evict — from affected chains only.
	ev := newEvalScratch(&rin) // one scratch serves every candidate of the call
	if reason, ok := evictUntilFits(ev, assign, isAffected); !ok {
		return nil, fmt.Errorf("%w: %s", ErrInfeasible, reason)
	}

	// Bind re-homed server nodes: a chain stays whole on one server. Prefer
	// a surviving server the chain already uses; otherwise the one with the
	// most free cores after the pinned chains' allocations.
	if reason, ok := bindReplaced(&rin, prev, assign, affected, isAffected); !ok {
		return nil, fmt.Errorf("%w: %s", ErrInfeasible, reason)
	}
	bindNICs(&rin, assign)

	// Break marks: pinned chains keep theirs; affected chains are retried
	// with and without split marks, like the heuristic's two variants.
	affectedNode := map[*nfgraph.Node]bool{}
	for _, ci := range affected {
		for _, n := range in.Chains[ci].Order {
			affectedNode[n] = true
		}
	}
	pinnedBreaks := filterBreaks(prev.Breaks, affectedNode, false)
	var cands []*Result
	for _, withSplits := range []bool{false, true} {
		breaks := pinnedBreaks
		if withSplits {
			marks := filterBreaks(splitBreaks(&rin, assign), affectedNode, true)
			if len(marks) == 0 {
				continue // identical to the no-split variant
			}
			breaks = mergeBreaks(pinnedBreaks, marks)
		}
		res, reason := assembleReplace(ev, prev, assign, breaks, isAffected)
		if reason != "" {
			if len(cands) == 0 && !withSplits {
				// Remember the primary variant's reason below via cands scan.
				cands = append(cands, &Result{Reason: reason})
			}
			continue
		}
		cands = append(cands, res)
	}
	var best *Result
	firstReason := ""
	for _, c := range cands {
		if !c.Feasible {
			if firstReason == "" {
				firstReason = c.Reason
			}
			continue
		}
		if best == nil || c.Marginal > best.Marginal+1e-6 {
			best = c
		}
	}
	if best == nil {
		if firstReason == "" {
			firstReason = "no feasible re-placement"
		}
		return nil, fmt.Errorf("%w: %s", ErrInfeasible, firstReason)
	}
	best.Scheme = prev.Scheme
	best.PlaceTime = time.Since(start)
	mReplacePins.Observe(float64(len(prev.Subgroups) - len(affected)))
	return best, nil
}

// rehome picks a surviving platform for one dead-device node: server first
// (cores are fungible), then a surviving SmartNIC, then the switch (the
// stage check arbitrates). The empty reason means success.
func rehome(rin *Input, n *nfgraph.Node) (Assign, string) {
	switch {
	case rin.allows(n, hw.Server):
		return Assign{Platform: hw.Server}, ""
	case rin.allows(n, hw.SmartNIC):
		return Assign{Platform: hw.SmartNIC}, ""
	case rin.allows(n, hw.PISA):
		return Assign{Platform: hw.PISA, Device: rin.Topo.Switch.Name}, ""
	}
	return Assign{}, fmt.Sprintf("nf %s has no surviving platform", n.Name())
}

// bindReplaced binds the affected chains' unbound server nodes, one server
// per chain, favouring a server the chain already uses and then free cores.
func bindReplaced(rin *Input, prev *Result, assign map[*nfgraph.Node]Assign, affected []int, isAffected []bool) (string, bool) {
	if len(affected) == 0 {
		return "", true
	}
	// Free cores per surviving server once the pinned chains keep theirs.
	free := map[string]int{}
	for _, s := range rin.Topo.Servers {
		free[s.Name] = s.WorkerCores()
	}
	for _, sg := range prev.Subgroups {
		if !isAffected[sg.ChainIdx] {
			free[sg.Server] -= sg.Cores
		}
	}

	// Most demanding chains bind first, mirroring bindServers.
	type demand struct {
		chain int
		cores int
	}
	demands := make([]demand, 0, len(affected))
	for _, ci := range affected {
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
		min := 0
		for _, sg := range computeSubgroups(rin, ci, g, probe) {
			need := rin.coresToMeet(sg, g.Chain.SLO.TMinBps)
			if !sg.Replicable {
				need = 1
			}
			min += need
		}
		demands = append(demands, demand{chain: ci, cores: min})
	}
	sort.SliceStable(demands, func(i, j int) bool { return demands[i].cores > demands[j].cores })

	for _, d := range demands {
		ci := d.chain
		// A server this chain still uses (surviving bound nodes) wins.
		target := ""
		for _, n := range rin.Chains[ci].Order {
			if a, ok := assign[n]; ok && a.Platform == hw.Server && a.Device != "" {
				target = a.Device
				break
			}
		}
		if target == "" {
			bestRem := math.MinInt32
			for _, s := range rin.Topo.Servers {
				if rem := free[s.Name]; rem > bestRem {
					target, bestRem = s.Name, rem
				}
			}
		}
		if target == "" {
			return "no surviving server to bind to", false
		}
		for _, n := range rin.Chains[ci].Order {
			if a, ok := assign[n]; ok && a.Platform == hw.Server {
				a.Device = target
				assign[n] = a
			}
		}
		free[target] -= d.cores
	}
	return "", true
}

// filterBreaks keeps the break marks whose node belongs to an affected
// (keepAffected=true) or pinned (false) chain. nil in, nil out.
func filterBreaks(breaks map[*nfgraph.Node]bool, affectedNode map[*nfgraph.Node]bool, keepAffected bool) map[*nfgraph.Node]bool {
	if len(breaks) == 0 {
		return nil
	}
	var out map[*nfgraph.Node]bool
	for n, v := range breaks {
		if v && affectedNode[n] == keepAffected {
			if out == nil {
				out = make(map[*nfgraph.Node]bool)
			}
			out[n] = true
		}
	}
	return out
}

func mergeBreaks(a, b map[*nfgraph.Node]bool) map[*nfgraph.Node]bool {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make(map[*nfgraph.Node]bool, len(a)+len(b))
	for n := range a {
		out[n] = true
	}
	for n := range b {
		out[n] = true
	}
	return out
}

// assembleReplace builds the combined Result: pinned chains reuse their
// previous *Subgroup/*NICUse values verbatim, affected chains get fresh
// ones, then cores are allocated to the fresh subgroups only and the full
// chain set is re-checked (stages, latency, rate LP). ev is the call's
// scratch, over the surviving topology (the input's own for an admission).
// The empty reason means success.
func assembleReplace(ev *evalScratch, prev *Result, assign map[*nfgraph.Node]Assign, breaks map[*nfgraph.Node]bool, isAffected []bool) (*Result, string) {
	rin := ev.in
	res := &Result{Assign: assign, Breaks: breaks, Retired: prev.Retired}
	var fresh []bool // per res.Subgroups entry
	for ci, g := range rin.Chains {
		if isAffected[ci] {
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
		for len(fresh) < len(res.Subgroups) {
			fresh = append(fresh, isAffected[ci])
		}
	}
	// The switch program spans all chains; the stage memo still applies
	// (same switch, same chain set).
	reason, ok := ev.check(res, ev.stageCheck,
		func() (string, bool) { return ev.allocateCoresReplace(fresh) }, ev.checkLatency, ev.solveRates)
	if !ok {
		return nil, reason
	}
	res.Feasible = true
	return res, ""
}

// allocateCoresReplace allocates cores to the fresh subgroups from the
// budget left by the pinned ones (which keep their previous Cores — the
// pinning invariant says they are never written). Fresh subgroups get one
// core, are raised to meet t_min, then spare cores go to each affected
// chain's bottleneck until t_max, per chain in index order.
func (ev *evalScratch) allocateCoresReplace(fresh []bool) (string, bool) {
	rin, res, subs := ev.in, ev.res, ev.res.Subgroups
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
	if rin.DisableCoreScaling {
		return "", true
	}

	if reason, ok := ev.raiseToTMin(fresh); !ok {
		return reason, false
	}

	// Spare cores: pour into each affected chain's bottleneck (fresh
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
