package metacompiler

import (
	"lemur/internal/hw"
	"lemur/internal/nfgraph"
	"lemur/internal/placer"
)

// Deadline-aware scheduling (Wang et al.): when a chain carries a latency
// deadline, every server subgroup on its paths gets a slack — the deadline
// minus the best-case delay a packet has accumulated by the time it reaches
// the subgroup — and the per-core scheduler trees order co-resident
// subgroups earliest-deadline-first by that slack. Deadline-free chains are
// untouched: their cores keep plain round-robin.

// EffectiveDeadlineSec is the chain's scheduling deadline: the mean bound
// d_max when set, else the tail bound d_max_p99, else 0 (no deadline). The
// runtime shares it to score deadline-SLO compliance with the same
// deadline the scheduler trees were built against.
func EffectiveDeadlineSec(g *nfgraph.Graph) float64 {
	if d := g.Chain.SLO.DMaxSec; d > 0 {
		return d
	}
	return g.Chain.SLO.DMaxP99Sec
}

// DeadlineSlacks computes the EDF slack of every server subgroup that
// belongs to a deadline-bearing chain: the chain's effective deadline minus
// the best-case upstream delay (switch pipeline, one hop latency per
// platform transition, and the full execution of upstream server
// subgroups), minimized across the service paths that reach the subgroup.
// Merge-aliased installs share their placer subgroup, so the map is keyed
// by *placer.Subgroup. Chains without a deadline contribute nothing; the
// result is empty for a deadline-free deployment.
func (d *Deployment) DeadlineSlacks() map[*placer.Subgroup]float64 {
	in, res := d.Input, d.Result
	slacks := map[*placer.Subgroup]float64{}
	clockHz := in.Topo.Servers[0].ClockHz
	for ci, g := range in.Chains {
		dl := EffectiveDeadlineSec(g)
		if dl <= 0 || res.IsRetired(ci) || ci >= len(d.ChainPaths) {
			continue
		}
		psgOf := map[*nfgraph.Node]*placer.Subgroup{}
		for _, sg := range res.Subgroups {
			if sg.ChainIdx == ci {
				psgOf[sg.Nodes[0]] = sg
			}
		}
		for _, sp := range d.ChainPaths[ci] {
			delay := placer.SwitchPipelineSec
			prev := placer.Assign{Platform: hw.PISA}
			for _, seg := range segments(sp, res.Assign, res.Breaks) {
				if at := (placer.Assign{Platform: seg.platform, Device: seg.device}); at.HopFrom(prev) {
					delay += in.Topo.HopLatencySec
					prev = at
				}
				if seg.platform != hw.Server {
					continue
				}
				psg := psgOf[sp.Nodes[seg.start]]
				if psg == nil {
					continue
				}
				s := dl - delay
				if cur, ok := slacks[psg]; !ok || s < cur {
					slacks[psg] = s
				}
				if clockHz > 0 {
					delay += psg.Cycles / clockHz
				}
			}
		}
	}
	return slacks
}

// subgroupSlacks projects DeadlineSlacks onto one server's installed
// subgroup names — the shape BuildSchedulersEDF consumes. Returns nil when
// no resident subgroup carries a deadline, which keeps the emitted trees
// byte-identical to the round-robin-only output.
func (d *Deployment) subgroupSlacks(server string, slacks map[*placer.Subgroup]float64) map[string]float64 {
	if len(slacks) == 0 {
		return nil
	}
	var out map[string]float64
	pl := d.Pipelines[server]
	if pl == nil {
		return nil
	}
	for _, sg := range pl.Subgroups() {
		psg := d.SubgroupOf[sg]
		if psg == nil {
			continue
		}
		if s, ok := slacks[psg]; ok {
			if out == nil {
				out = map[string]float64{}
			}
			out[sg.Name] = s
		}
	}
	return out
}
