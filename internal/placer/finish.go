package placer

import (
	"fmt"

	"lemur/internal/hw"
	"lemur/internal/nfgraph"
)

// finish evaluates one whole-input assignment whose server nodes are not
// yet bound — the baselines' single candidate, without split marks — and
// returns its Result, feasible or carrying the first infeasibility reason.
func finish(in *Input, assign map[*nfgraph.Node]Assign, policy allocPolicy) *Result {
	c := newCandidate(in, assign)
	ev := in.takeScratch()
	defer in.putScratch(ev)
	ev.evaluate(&c, 0, policy)
	return ev.materialise()
}

// finishWhole is finish with the SW-Preferred subgroup model: each chain's
// server NFs form one whole-chain run-to-completion group (the paper's "all
// NFs are in one subgroup", §5.2), which is non-replicable as soon as the
// chain branches, merges, or contains a non-replicable NF. It binds the
// chains' server nodes in assign.
func finishWhole(in *Input, assign map[*nfgraph.Node]Assign, policy allocPolicy) *Result {
	c := newCandidate(in, assign)
	res := &Result{Assign: assign}
	for ci, g := range in.Chains {
		server := in.Topo.Servers[c.srv[ci]].Name
		var sg *Subgroup
		for _, n := range g.Order {
			a, ok := assign[n]
			if !ok || a.Platform != hw.Server {
				continue
			}
			a.Device = server
			assign[n] = a
			if sg == nil {
				sg = &Subgroup{
					ChainIdx: ci, Server: server, Weight: 1, Replicable: true,
					Cycles: in.Topo.EncapCycles + in.Topo.DemuxCycles,
				}
				res.Subgroups = append(res.Subgroups, sg)
			}
			sg.Nodes = append(sg.Nodes, n)
			// The whole group runs per chain packet; each NF executes with
			// probability equal to its traffic fraction.
			sg.Cycles += in.nodeCycles(ci, n) * n.Weight
			if !n.Meta.Replicable || n.IsBranch() || n.IsMerge() {
				sg.Replicable = false
			}
		}
		res.NICUses = append(res.NICUses, c.tmpls[ci].nics...)
	}
	ev := in.takeScratch()
	defer in.putScratch(ev)
	ev.finishResult(res, policy)
	return res
}

// checkLatency verifies d_max for every chain that sets one (§5.3): the
// worst root-to-leaf path delay (see worstPathSec) must not exceed the
// bound.
func (ev *evalScratch) checkLatency() (string, bool) {
	in, res := ev.in, ev.res
	for ci, g := range in.Chains {
		dmax := g.Chain.SLO.DMaxSec
		if dmax <= 0 || res.IsRetired(ci) {
			continue
		}
		// A d_max below the placement-independent propagation floor —
		// the switch pipeline plus, when some NF cannot run on the
		// switch, the mandatory round trip to another platform — cannot
		// be met by ANY placement. Report that explicitly (and before
		// the path walk, which is silently vacuous for chains whose
		// path set is empty) instead of blaming this placement's paths.
		floor := SwitchPipelineSec
		for _, n := range g.Order {
			if !in.allows(n, hw.PISA) {
				floor += 2 * in.Topo.HopLatencySec
				break
			}
		}
		if dmax < floor {
			return fmt.Sprintf("chain %s: d_max %.1fus is below the best-case propagation delay %.1fus; no placement can meet it",
				g.Chain.Name, dmax*1e6, floor*1e6), false
		}
		if worst := ev.worstPathSec(ci, false); worst > dmax {
			return fmt.Sprintf("chain %s: worst-path delay %.1fus exceeds d_max %.1fus",
				g.Chain.Name, worst*1e6, dmax*1e6), false
		}
	}
	return "", true
}

// worstPathSec is the placer's one model of a placed path: the largest
// delay over chain ci's root-to-leaf paths, each the fixed switch pipeline
// latency, NF execution on servers and SmartNICs, and one hop latency per
// platform transition (the return to the ToR included). With tail set it is
// the p99 model instead: every server subgroup a path crosses adds, once per
// path and at its first node, its M/M/1 p99 wait at the chain's solved rate
// — which needs checkTailLatency's subOf/seen index and ChainRates filled.
func (ev *evalScratch) worstPathSec(ci int, tail bool) float64 {
	in, res, p := ev.in, ev.res, ev.p
	worst := 0.0
	for _, path := range p.ents[ci].paths {
		ev.pathNo++ // stamps the subgroups this path has counted (tail only)
		d := SwitchPipelineSec
		prev := Assign{Platform: hw.PISA}
		hops := 0
		for _, n := range path {
			i := p.base[ci] + n.Seq
			a := ev.assign[i]
			if a.HopFrom(prev) {
				hops++
				prev = a
			}
			switch a.Platform {
			case hw.Server:
				d += in.nodeCycles(ci, n) / in.clockHz()
				if tail {
					if si := ev.subOf[i]; si >= 0 && ev.seen[si] != ev.pathNo {
						ev.seen[si] = ev.pathNo
						d += mm1P99WaitSec(in, res.Subgroups[si], res.ChainRates[ci])
					}
				}
			case hw.SmartNIC:
				if nic := p.nics[a.Device]; nic != nil {
					d += in.nodeCycles(ci, n) / (nic.SpeedupVsServerCore * in.clockHz())
				}
			}
		}
		if prev.Platform != hw.PISA {
			hops++
		}
		d += float64(hops) * in.Topo.HopLatencySec
		if d > worst {
			worst = d
		}
	}
	return worst
}

// bindNICs attaches SmartNIC-assigned nodes to the first SmartNIC (our
// topologies have at most one).
func bindNICs(in *Input, assign map[*nfgraph.Node]Assign) {
	if len(in.Topo.SmartNICs) == 0 {
		return
	}
	name := in.Topo.SmartNICs[0].Name
	for n, a := range assign {
		if a.Platform == hw.SmartNIC && a.Device == "" {
			a.Device = name
			assign[n] = a
		}
	}
}

// cloneAssign copies an assignment map.
func cloneAssign(m map[*nfgraph.Node]Assign) map[*nfgraph.Node]Assign {
	out := make(map[*nfgraph.Node]Assign, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
