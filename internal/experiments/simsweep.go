package experiments

import (
	"fmt"

	"lemur/internal/placer"
	"lemur/internal/runtime"
)

// SimPoint is one independent simulation cell of a sweep: the placed rates
// scaled by LoadFactor, simulated under Seed.
type SimPoint struct {
	LoadFactor float64
	Seed       int64
}

// SimCell is one point's outcome.
type SimCell struct {
	Point SimPoint
	Sim   *runtime.SimResult
}

// SimSweep places one chain set once, then simulates every point on its own
// freshly compiled deployment so cells share no NF or queue state. Cells run
// concurrently, bounded by Runner.Parallel (GOMAXPROCS when unset), and the
// reduce is deterministic: results are stored by point index, so the output
// is byte-identical to a serial run regardless of worker count or
// completion order.
func (r *Runner) SimSweep(chainIdxs []int, delta float64, points []SimPoint, cfg runtime.SimConfig) ([]SimCell, error) {
	in, _, err := r.input(chainIdxs, delta)
	if err != nil {
		return nil, err
	}
	res, err := placeFeasible("simsweep", placer.SchemeLemur, in)
	if err != nil {
		return nil, err
	}

	cells := make([]SimCell, len(points))
	err = forEach(len(points), r.Parallel, func(pi int) error {
		pcfg := cfg
		pcfg.Seed = points[pi].Seed
		sim, err := r.simulate(in, res, points[pi].LoadFactor, pcfg)
		if err != nil {
			return fmt.Errorf("experiments: simsweep point %d: %w", pi, err)
		}
		cells[pi] = SimCell{Point: points[pi], Sim: sim}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// DefaultSimPoints spans underload through drop onset: load factors 0.6 to
// 1.8, each point seeded from base so runs are reproducible.
func DefaultSimPoints(base int64) []SimPoint {
	factors := []float64{0.6, 0.8, 1.0, 1.2, 1.5, 1.8}
	pts := make([]SimPoint, len(factors))
	for i, f := range factors {
		pts[i] = SimPoint{LoadFactor: f, Seed: base + int64(i)}
	}
	return pts
}
