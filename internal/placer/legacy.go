package placer

import "errors"

// The pre-Reconfigure entry points. Each forwards one delta kind to
// Reconfigure and adds nothing; they stay only because the frozen bench/
// module calls them, and go when it moves to Reconfigure.

// Replace is Reconfigure for a failure-only delta: the re-placement after
// the devices in failed die, or an error wrapping errInfeasible. With an
// empty failed set it is a pure re-validation of prev.
func Replace(prev *Result, in *Input, failed NodeSet) (*Result, error) {
	rep, err := Reconfigure(prev, in, Delta{Failed: failed})
	if err != nil {
		return nil, err
	}
	return rep.Result, rep.Err()
}

// Admit is Reconfigure for an admission-only delta: newChains is the
// contiguous tail of the grown input.
func Admit(prev *Result, in *Input, newChains []int) (*Report, error) {
	if len(newChains) == 0 {
		return nil, errors.New("placer: Admit needs at least one new chain")
	}
	return Reconfigure(prev, in, Delta{Admit: newChains})
}

// Retire is Reconfigure for a retirement-only delta: prev without the
// goneChains, their slots marked Retired, or an error wrapping errInfeasible.
// For chains without a tail bound that cannot happen when prev was feasible
// (removing chains only relaxes constraints — the property tests pin this);
// a chain with a d_max_p99 can be lifted to saturation by the capacity a
// retirement frees, which Reconfigure refuses.
func Retire(prev *Result, in *Input, goneChains []int) (*Result, error) {
	rep, err := Reconfigure(prev, in, Delta{Retire: goneChains})
	if err != nil {
		return nil, err
	}
	return rep.Result, rep.Err()
}
