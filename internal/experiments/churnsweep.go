package experiments

import (
	"fmt"

	"lemur/internal/placer"
)

// ChurnStep is one cell of an admission-capacity sweep: the outcome of
// incrementally admitting one more chain onto a placed system, side by side
// with the full re-solve it avoids.
type ChurnStep struct {
	// Step numbers the admission (0 = first chain admitted beyond the base
	// set); BaseChains is how many chains were already placed when it ran.
	Step       int
	BaseChains int
	// Chain is the canonical chain index admitted (Table 2 numbering);
	// ChainName its spec name.
	Chain     int
	ChainName string

	// BaseFeasible reports whether the base system of BaseChains chains could
	// be placed at all; when false the admission question is moot and the
	// step's Outcome is infeasible with the base reason.
	BaseFeasible bool
	// Outcome is the placer's three-way admission verdict.
	Outcome placer.AdmitOutcome
	// Reason is why the pin-preserving attempt failed (empty when
	// incremental).
	Reason string
	// Pinned counts the prior placement's subgroups carried by pointer
	// (0 unless the outcome is incremental).
	Pinned int
	// MarginalBps is the admitted placement's marginal throughput headroom
	// in bits/sec (0 unless incremental).
	MarginalBps float64

	// FullFeasible reports whether the from-scratch placement succeeded
	// (when an incremental admission fails but this holds, the system has
	// capacity only at the cost of a disruptive repack).
	FullFeasible bool
}

// churnHeadroom is the per-server worker-core reserve the churn sweep places
// its base systems with (placer.Input.HeadroomCores): an offline placement
// spends every core on marginal throughput, which leaves nothing for
// newcomers.
const churnHeadroom = 4

// ChurnSweep measures admission capacity: starting from the base canonical
// chains at δ, it admits the given chains one at a time and reports each
// step's verdict. Step k admits its chain onto a freshly placed system of
// base+k chains — the capacity question "can one more tenant join without
// disturbing the k running ones" — which makes every cell independent, so
// cells run concurrently bounded by Runner.Parallel with results stored by
// step index: the output is byte-identical to a serial run at any worker
// count.
//
// The sweep keeps going past the first non-incremental verdict (capacity is
// AdmittedCapacity over the result); a step whose base placement is itself
// infeasible reports that in BaseFeasible/Reason rather than failing, so the
// sweep can run past the rack's capacity point.
func (r *Runner) ChurnSweep(baseChainIdxs, admitChainIdxs []int, delta float64, scheme placer.Scheme) ([]ChurnStep, error) {
	if len(admitChainIdxs) == 0 {
		return nil, fmt.Errorf("experiments: churn sweep needs at least one chain to admit")
	}
	all := append(append([]int(nil), baseChainIdxs...), admitChainIdxs...)
	full, _, err := r.input(all, delta)
	if err != nil {
		return nil, err
	}

	steps := make([]ChurnStep, len(admitChainIdxs))
	err = forEach(len(steps), r.Parallel, func(k int) error {
		st, err := r.churnStep(full, len(baseChainIdxs)+k, admitChainIdxs[k], scheme)
		if err != nil {
			return fmt.Errorf("experiments: churn step %d: %w", k, err)
		}
		st.Step = k
		steps[k] = st
		return nil
	})
	if err != nil {
		return nil, err
	}
	return steps, nil
}

// churnStep runs one admission cell: place the first nBase chains of the
// full input, admit chain slot nBase incrementally, and place all nBase+1
// chains from scratch for comparison. Each cell builds its own
// Input values (sharing only the immutable graphs) so the placer's
// per-input prep caches never race across cells.
func (r *Runner) churnStep(full *placer.Input, nBase, chainIdx int, scheme placer.Scheme) (ChurnStep, error) {
	st := ChurnStep{
		BaseChains: nBase,
		Chain:      chainIdx,
		ChainName:  full.Chains[nBase].Chain.Name,
	}
	// prefix is a fresh Input over the first n chains, headroom reserved.
	prefix := func(n int) *placer.Input {
		in := *full
		in.Chains = full.Chains[:n:n]
		in.HeadroomCores = churnHeadroom
		return &in
	}
	prev, err := placer.Place(scheme, prefix(nBase))
	if err != nil {
		return st, err
	}
	st.BaseFeasible = prev.Feasible
	if prev.Feasible {
		rep, err := placer.Reconfigure(prev, prefix(nBase+1), placer.Delta{Admit: []int{nBase}})
		if err != nil {
			return st, err
		}
		st.Outcome = rep.Outcome
		st.Reason = rep.IncrementalReason
		if rep.Outcome == placer.AdmitIncremental {
			st.Pinned = rep.PinnedSubgroups
			st.MarginalBps = rep.Result.Marginal
		}
	} else {
		st.Outcome = placer.AdmitInfeasible
		st.Reason = "base placement infeasible: " + prev.Reason
	}

	fres, err := placer.Place(scheme, prefix(nBase+1))
	if err != nil {
		return st, err
	}
	st.FullFeasible = fres.Feasible
	return st, nil
}

// AdmittedCapacity is the number of consecutive leading steps a churn sweep
// admitted incrementally — the paper-style capacity headline "chains
// admitted until first infeasibility".
func AdmittedCapacity(steps []ChurnStep) int {
	n := 0
	for _, st := range steps {
		if st.Outcome != placer.AdmitIncremental {
			break
		}
		n++
	}
	return n
}

// DefaultChurnAdmits builds the default admission sequence for the capacity
// sweep: n canonical chains cycling over the light-to-medium chains
// {3, 5, 2}, so capacity is exhausted gradually rather than by one giant
// chain.
func DefaultChurnAdmits(n int) []int {
	cycle := []int{3, 5, 2}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, cycle[i%len(cycle)])
	}
	return out
}
