package experiments

import (
	"fmt"

	"lemur/internal/chaos"
	"lemur/internal/placer"
	"lemur/internal/runtime"
)

// FailoverPoint is one cell of a fault-injection sweep: crash the named
// servers at AtSec under a fixed seed, offering the placed rates.
type FailoverPoint struct {
	Crash []string
	AtSec float64
	Seed  int64
}

// FailoverCell is one point's outcome: the full simulation result plus the
// post-failover SLO compliance count the "SLO compliance under k failures"
// table reports.
type FailoverCell struct {
	Point           FailoverPoint
	Sim             *runtime.SimResult
	CompliantChains int
	TotalChains     int
}

// FailoverSweep places one chain set once, then runs every fault-injection
// point on its own freshly compiled deployment (a failover run rewires the
// deployment in place, so cells must not share one). Cells run concurrently,
// bounded by Runner.Parallel, and results are stored by point index — the
// output is byte-identical to a serial run at any worker count, exactly like
// SimSweep.
//
// A point with no crash targets is the k=0 baseline: it runs fault-free and
// compliance is judged on the whole run. Points whose crashes leave no
// feasible re-placement are still valid cells — the severed chains simply
// count as non-compliant.
func (r *Runner) FailoverSweep(chainIdxs []int, delta float64, points []FailoverPoint, cfg runtime.SimConfig) ([]FailoverCell, error) {
	in, _, err := r.input(chainIdxs, delta)
	if err != nil {
		return nil, err
	}
	res, err := placeFeasible("failover sweep", placer.SchemeLemur, in)
	if err != nil {
		return nil, err
	}

	cells := make([]FailoverCell, len(points))
	err = forEach(len(points), r.Parallel, func(pi int) error {
		cell, err := r.failoverCell(in, res, points[pi], cfg)
		if err != nil {
			return fmt.Errorf("experiments: failover point %d: %w", pi, err)
		}
		cells[pi] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

func (r *Runner) failoverCell(in *placer.Input, res *placer.Result, pt FailoverPoint, cfg runtime.SimConfig) (FailoverCell, error) {
	pcfg := cfg
	pcfg.Seed = pt.Seed
	pcfg.Faults = nil
	if len(pt.Crash) > 0 {
		// The plan's delays stay zero: the default detection and reconfig
		// delays apply, and SimResult.Failover reports them.
		plan := &chaos.Plan{}
		for _, target := range pt.Crash {
			plan.Events = append(plan.Events, chaos.Event{Kind: chaos.Crash, Target: target, AtSec: pt.AtSec})
		}
		pcfg.Faults = plan
	}

	sim, err := r.simulate(in, res, 1, pcfg)
	if err != nil {
		return FailoverCell{}, err
	}

	cell := FailoverCell{Point: pt, Sim: sim, TotalChains: len(in.Chains)}
	for ci := range in.Chains {
		want := sim.OfferedBps[ci]
		if tmin := in.Chains[ci].Chain.SLO.TMinBps; tmin > 0 && tmin < want {
			want = tmin
		}
		switch {
		case sim.Failover != nil:
			if sim.Failover.PostSLOCompliant[ci] {
				cell.CompliantChains++
			}
		case sim.AchievedBps[ci] >= want*0.9:
			cell.CompliantChains++
		}
	}
	return cell, nil
}

// DefaultFailoverPoints builds the "SLO compliance under k failures" grid
// for a topology: k = 0 (baseline) through len(servers)-1 crashes of the
// first k servers in topology order, all at the same fault time, each point
// seeded from base so the sweep is reproducible. If all but one server were
// already crashed there is nowhere left to fail over to, so k stops short of
// killing the whole rack.
func DefaultFailoverPoints(servers []string, base int64) []FailoverPoint {
	if len(servers) == 0 {
		return nil
	}
	pts := make([]FailoverPoint, 0, len(servers))
	for k := 0; k < len(servers); k++ {
		pts = append(pts, FailoverPoint{
			Crash: append([]string(nil), servers[:k]...),
			AtSec: 0.05,
			Seed:  base + int64(k),
		})
	}
	return pts
}
