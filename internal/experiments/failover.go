package experiments

import (
	"lemur/internal/chaos"
	"lemur/internal/placer"
	"lemur/internal/runtime"
)

// failoverAtSec is when the failover section's crashes fire.
const failoverAtSec = 0.05

// failoverCells is the "SLO compliance under k failures" grid over a rack's
// servers: k = 0 (the fault-free baseline) through len(servers)-1 crashes
// of the first k servers in topology order, all at failoverAtSec, seeded
// 1+k, at load 1 under cfg. With every server crashed there would be
// nowhere left to fail over to, so k stops one short. A crash plan's delays
// stay zero: the default detection and reconfig delays apply, and
// SimResult.Failover reports them.
func failoverCells(servers []string, cfg runtime.SimConfig) []simCell {
	cells := make([]simCell, len(servers))
	for k := range cells {
		c := cfg
		c.Seed = 1 + int64(k)
		if k > 0 {
			c.Faults = &chaos.Plan{}
			for _, target := range servers[:k] {
				c.Faults.Events = append(c.Faults.Events, chaos.Event{Kind: chaos.Crash, Target: target, AtSec: failoverAtSec})
			}
		}
		cells[k] = simCell{1, c}
	}
	return cells
}

// compliantChains counts the chains of in that met their SLO in sim: after a
// failover, the simulator's post-failover verdict; in a fault-free run,
// runtime.MeetsRateSLO on the whole run's rate. Crashes that
// leave no feasible re-placement still make a valid run — the severed
// chains count as non-compliant.
func compliantChains(in *placer.Input, sim *runtime.SimResult) int {
	n := 0
	for ci := range in.Chains {
		switch {
		case sim.Failover != nil:
			if sim.Failover.PostSLOCompliant[ci] {
				n++
			}
		case runtime.MeetsRateSLO(sim.AchievedBps[ci], sim.OfferedBps[ci], in.Chains[ci].Chain.SLO.TMinBps):
			n++
		}
	}
	return n
}
