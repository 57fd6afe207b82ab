package placer

import (
	"math"
	"sync"
	"sync/atomic"
)

// The concurrent placement engine: candidate evaluation fans out over a
// bounded worker pool, but every reduction walks results in enumeration
// order with the same tie-breaks as a serial sweep, so Place returns
// byte-identical Results for any Input.Parallel value. Tasks write only to
// their own index-addressed slot and their worker's scratch (plus
// goroutine-safe shared state: the PISA compile cache, obs counters), which
// keeps the fan-out race-free without locks on the hot path.

// workers returns the candidate-evaluation pool width for this input.
func (in *Input) workers() int {
	if in.Parallel > 1 {
		return in.Parallel
	}
	return 1
}

// runIndexed executes task(i, w) for i in 0..n-1 on up to workers
// goroutines (inline when workers <= 1), w being the index of the goroutine
// that runs it: tasks with one w never run at once. Tasks are handed out by
// an atomic cursor, so scheduling is nondeterministic — callers must keep
// per-index outputs and reduce in index order to stay deterministic. Each
// goroutine takes its indices in increasing order.
func runIndexed(n, workers int, task func(i, w int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			task(i, 0)
		}
		return
	}
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
				task(i, w)
			}
		}()
	}
	wg.Wait()
}

// evaluator is a search's evaluation workers, one scratch each: worker 0
// evaluates on the Input's family scratch (see takeScratch), the others on
// scratches of the call's own, made when the worker first runs. So a call
// warms at most Input.Parallel scratches however many candidates it scores;
// close gives the family's back.
type evaluator struct {
	in      *Input
	workers []evalWorker
}

// evalWorker is one worker's scratch and what it saw in the current round:
// top is the floor a feasible variant must beat to be materialised (see
// evalWorker.evaluate), named that it rendered an infeasibility reason.
type evalWorker struct {
	ev    *evalScratch
	top   float64
	named bool
}

func newEvaluator(in *Input) *evaluator {
	e := &evaluator{in: in, workers: make([]evalWorker, in.workers())}
	e.workers[0].ev = in.takeScratch()
	return e
}

func (e *evaluator) close() { e.in.putScratch(e.workers[0].ev) }

// round runs task over slots 0..n-1 on the workers. best is the Result the
// caller's reduce holds going into the round (nil for none): no variant at
// or below its marginal+1e-6 is materialised.
func (e *evaluator) round(n int, best *Result, task func(i int, w *evalWorker)) {
	floor := math.Inf(-1)
	if best != nil {
		floor = best.Marginal + 1e-6
	}
	for i := range e.workers {
		e.workers[i].top, e.workers[i].named = floor, false
	}
	runIndexed(n, len(e.workers), func(i, w int) {
		wk := &e.workers[w]
		if wk.ev == nil {
			wk.ev = newEvalScratch(e.in)
		}
		task(i, wk)
	})
}
