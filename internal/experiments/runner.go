package experiments

import (
	"fmt"
	runtimepkg "runtime"
	"sync"
	"sync/atomic"
	"time"

	"lemur/internal/hw"
	"lemur/internal/metacompiler"
	"lemur/internal/placer"
	"lemur/internal/profile"
	"lemur/internal/runtime"
)

// Runner executes evaluation sets: build chains at a δ, place with a
// scheme, compile, deploy on the simulated testbed, and measure.
type Runner struct {
	Topo *hw.Topology

	// DMaxSec, when set, attaches a latency SLO to every chain.
	DMaxSec float64

	// SkipMeasure skips the testbed run (placement-only studies).
	SkipMeasure bool
	// VerifyPackets, when >0, also walks this many generated frames per
	// chain through the deployment and fails on steering errors.
	VerifyPackets int

	// BruteForceBudget bounds the Optimal scheme's search.
	BruteForceBudget int

	// Parallel bounds experiment-cell concurrency and is forwarded to
	// placer.Input.Parallel so candidate evaluation inside each placement
	// fans out too. 0 means GOMAXPROCS for cells and a serial placer —
	// results are identical either way (the placer reduces candidates
	// deterministically).
	Parallel int

	// SimWorkers is runtime.SimConfig.Workers for the simulations of
	// WritePaper's deadline, sim, failover and scale sections. Their output
	// is the same at any value; 0 and 1 run one shard.
	SimWorkers int
}

// Every experiment costs NFs by the registry's worst-case models
// (profile.DefaultDB), caps each chain's burst at the paper's 100 Gbps, and
// seeds its simulated testbeds with testbedSeed.
const (
	chainTMaxBps = 100e9
	testbedSeed  = 1
)

// NewRunner returns a runner with the paper's defaults on the given
// topology.
func NewRunner(topo *hw.Topology) *Runner {
	return &Runner{Topo: topo, BruteForceBudget: 2000}
}

// on returns a copy of r bound to another topology. Experiments that compare
// racks derive their sibling runners this way, so Parallel, VerifyPackets and
// every other setting carry over by value.
func (r *Runner) on(topo *hw.Topology) *Runner {
	r2 := *r
	r2.Topo = topo
	return &r2
}

// forEach runs cell(0..n-1) on up to workers goroutines: GOMAXPROCS when
// workers <= 0, inline when one worker (or one cell) is all there is. Cells
// are handed out by an atomic cursor, so completion order is nondeterministic
// — a cell writes its result into an index-addressed slot, and forEach
// reduces errors the same way: every cell runs even after one has failed (the
// slots of the others stay complete) and the lowest-index error is returned,
// so neither results nor the reported failure depend on the schedule.
func forEach(n, workers int, cell func(i int) error) error {
	if workers <= 0 {
		workers = runtimepkg.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers <= 1 {
		for i := range errs {
			errs[i] = cell(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					errs[i] = cell(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SchemeResult is one scheme's outcome on one experiment set.
type SchemeResult struct {
	Scheme             placer.Scheme
	Feasible           bool
	Reason             string
	PredictedAggregate float64 // ◇ above the bar
	MeasuredAggregate  float64 // bar height
	Marginal           float64
	Stages             int
	PlaceTime          time.Duration
}

// Set identifies one experiment input: canonical chains at a δ.
type Set struct {
	ChainIdxs []int
	Delta     float64
	AggTmin   float64
}

// input builds the placer input for a set.
func (r *Runner) input(chainIdxs []int, delta float64) (*placer.Input, *Set, error) {
	db := profile.DefaultDB()
	bases, err := BaseRates(chainIdxs, r.Topo, db)
	if err != nil {
		return nil, nil, err
	}
	tmins := make([]float64, len(bases))
	agg := 0.0
	for i, b := range bases {
		tmins[i] = delta * b
		agg += tmins[i]
	}
	graphs, err := BuildChains(chainIdxs, tmins, chainTMaxBps, r.DMaxSec)
	if err != nil {
		return nil, nil, err
	}
	in := &placer.Input{
		Chains:           graphs,
		Topo:             r.Topo,
		DB:               db,
		Restrict:         EvalRestrict,
		BruteForceBudget: r.BruteForceBudget,
		Parallel:         r.Parallel,
	}
	return in, &Set{ChainIdxs: chainIdxs, Delta: delta, AggTmin: agg}, nil
}

// RunSet places one set with one scheme and measures the result.
func (r *Runner) RunSet(chainIdxs []int, delta float64, scheme placer.Scheme) (*SchemeResult, *Set, error) {
	in, set, err := r.input(chainIdxs, delta)
	if err != nil {
		return nil, nil, err
	}
	out, _, err := r.runInput(in, scheme)
	if err != nil {
		return nil, nil, err
	}
	return out, set, nil
}

// runInput is RunSet past the input: place it, and — unless the placement is
// infeasible or SkipMeasure is set — deploy, verify and measure. The placer's
// Result comes back too, for experiments that also report on the placement
// itself (NIC use, bounces).
func (r *Runner) runInput(in *placer.Input, scheme placer.Scheme) (*SchemeResult, *placer.Result, error) {
	res, err := placer.Place(scheme, in)
	if err != nil {
		return nil, nil, err
	}
	out := &SchemeResult{
		Scheme:    scheme,
		Feasible:  res.Feasible,
		Reason:    res.Reason,
		Stages:    res.Stages,
		PlaceTime: res.PlaceTime,
	}
	if !res.Feasible {
		return out, res, nil
	}
	out.PredictedAggregate = res.PredictedAggregate
	out.Marginal = res.Marginal
	if r.SkipMeasure {
		out.MeasuredAggregate = res.PredictedAggregate
		return out, res, nil
	}
	tb, err := r.deploy(in, res)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: %s: %w", scheme, err)
	}
	if r.VerifyPackets > 0 {
		if _, err := tb.Verify(r.VerifyPackets); err != nil {
			return nil, nil, fmt.Errorf("experiments: %s verification: %w", scheme, err)
		}
	}
	m, err := MeasureAchieved(tb, in, res)
	if err != nil {
		return nil, nil, err
	}
	out.MeasuredAggregate = m.Aggregate
	return out, res, nil
}

// placeFeasible places in with scheme for a sweep that goes on to run traffic
// over the placement: with nothing to run, an infeasible verdict is an error,
// named after the sweep (what).
func placeFeasible(what string, scheme placer.Scheme, in *placer.Input) (*placer.Result, error) {
	res, err := placer.Place(scheme, in)
	if err != nil {
		return nil, err
	}
	if !res.Feasible {
		return nil, fmt.Errorf("experiments: %s: placement infeasible: %s", what, res.Reason)
	}
	return res, nil
}

// deploy compiles a placement and stands it up on a fresh simulated testbed
// seeded with testbedSeed. Verify and Simulate mutate NF and queue state (and a
// failover run rewires the deployment in place), so every cell that runs
// traffic deploys its own from the shared placement.
func (r *Runner) deploy(in *placer.Input, res *placer.Result) (*runtime.Testbed, error) {
	d, err := metacompiler.Compile(in, res)
	if err != nil {
		return nil, err
	}
	return runtime.New(d, testbedSeed), nil
}

// simCell is one simulation over a placement: the placed rates scaled by
// load, run under cfg.
type simCell struct {
	load float64
	cfg  runtime.SimConfig
}

// simulateCells runs every cell on its own fresh deployment of res (see
// deploy), with cfg.Workers set to r.SimWorkers. Cells run concurrently,
// bounded by Runner.Parallel, and results and errors reduce by cell index
// through forEach, so the output is byte-identical at any Parallel and
// SimWorkers. Each result comes back with the deployment it ran on; a run's
// offered rates are its SimResult.OfferedBps.
func (r *Runner) simulateCells(in *placer.Input, res *placer.Result, cells []simCell) ([]*runtime.SimResult, []*metacompiler.Deployment, error) {
	sims := make([]*runtime.SimResult, len(cells))
	deps := make([]*metacompiler.Deployment, len(cells))
	err := forEach(len(cells), r.Parallel, func(i int) error {
		tb, err := r.deploy(in, res)
		if err == nil {
			offered := make([]float64, len(res.ChainRates))
			for ci, rate := range res.ChainRates {
				offered[ci] = rate * cells[i].load
			}
			cfg := cells[i].cfg
			cfg.Workers = r.SimWorkers
			sims[i], err = tb.Simulate(offered, cfg)
		}
		if err != nil {
			return fmt.Errorf("experiments: simulation cell %d: %w", i, err)
		}
		deps[i] = tb.D
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return sims, deps, nil
}

// MeasureAchieved drives the testbed the way the paper does: each chain
// offers slightly more than its planned rate (bounded by t_max), so
// measured throughput can exceed the conservative prediction when the
// hardware realizes sub-worst-case cycle costs or same-NUMA placement
// (§5.2 "predictions are conservative").
func MeasureAchieved(tb *runtime.Testbed, in *placer.Input, res *placer.Result) (*runtime.Measurement, error) {
	offered := make([]float64, len(res.ChainRates))
	for i, rate := range res.ChainRates {
		burst := rate * 1.25
		if tmax := in.Chains[i].Chain.SLO.TMaxBps; burst > tmax {
			burst = tmax
		}
		offered[i] = burst
	}
	return tb.Measure(offered)
}

// DeltaRow is one δ step of a Figure 2 panel.
type DeltaRow struct {
	Set     *Set
	Schemes []*SchemeResult
}

// Figure2Panel reproduces one panel of Figure 2: the δ sweep over one chain
// combination across schemes. Cells are independent (each RunSet builds its
// own chains, placement and deployment), so they run concurrently, bounded
// by Runner.Parallel (GOMAXPROCS when unset).
func (r *Runner) Figure2Panel(chainIdxs []int, deltas []float64, schemes []placer.Scheme) ([]DeltaRow, error) {
	rows := make([]DeltaRow, len(deltas))
	for di := range rows {
		rows[di].Schemes = make([]*SchemeResult, len(schemes))
	}
	err := forEach(len(deltas)*len(schemes), r.Parallel, func(i int) error {
		di, si := i/len(schemes), i%len(schemes)
		sr, set, err := r.RunSet(chainIdxs, deltas[di], schemes[si])
		if err != nil {
			return err
		}
		rows[di].Schemes[si] = sr
		if si == 0 {
			// The set depends on δ alone; one cell per row records it.
			rows[di].Set = set
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Figure2Combos are the chain sets of Figure 2a-e.
func Figure2Combos() [][]int {
	return [][]int{
		{1, 2, 3, 4}, // 2a
		{1, 2, 3},    // 2b
		{1, 2, 4},    // 2c
		{1, 3, 4},    // 2d
		{2, 3, 4},    // 2e
	}
}
