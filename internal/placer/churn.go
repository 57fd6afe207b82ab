package placer

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"lemur/internal/nfgraph"
	"lemur/internal/obs"
)

// AdmitOutcome classifies how (or whether) an admission was satisfied.
type AdmitOutcome int

// Admission outcomes, in decreasing order of desirability.
const (
	// AdmitIncremental: the new chains were placed with every prior chain's
	// subgroups pinned by pointer — zero disruption to running traffic.
	AdmitIncremental AdmitOutcome = iota
	// AdmitRepack: no pin-preserving placement exists, but a full re-solve
	// over all active chains is feasible. Applying it is disruptive (every
	// chain's dataplane state moves); the caller decides.
	AdmitRepack
	// AdmitInfeasible: the rack cannot host the new chains at any
	// disruption level.
	AdmitInfeasible
)

// String renders the outcome for reports and tables.
func (o AdmitOutcome) String() string {
	switch o {
	case AdmitIncremental:
		return "incremental"
	case AdmitRepack:
		return "full-repack"
	case AdmitInfeasible:
		return "infeasible"
	}
	return fmt.Sprintf("AdmitOutcome(%d)", int(o))
}

// AdmitReport is Admit's three-way answer: feasible-with-pins, feasible only
// with a full repack, or infeasible — plus the evidence for each.
type AdmitReport struct {
	// Outcome is the verdict.
	Outcome AdmitOutcome

	// Result is the pin-preserving incremental placement. Set only when
	// Outcome is AdmitIncremental; every pre-existing chain's *Subgroup and
	// *NICUse pointers are reused verbatim from prev.
	Result *Result

	// Repack is the disruptive full re-solve over all active chains plus the
	// new ones. Set when Outcome is AdmitRepack. It is solved against
	// RepackInput, whose chain slots may be compacted (retired slots
	// dropped); RepackChains maps each repack slot back to the original
	// chain index (new chains map to their index in the grown input).
	Repack       *Result
	RepackInput  *Input
	RepackChains []int

	// PinnedSubgroups counts prev subgroups carried by pointer into Result
	// (0 unless Outcome is AdmitIncremental).
	PinnedSubgroups int

	// IncrementalReason is why the pin-preserving attempt failed, when it
	// did (empty for AdmitIncremental).
	IncrementalReason string

	// IncrementalTime and RepackTime are the wall-clock solve times of the
	// two attempts (RepackTime is zero when the incremental path succeeded
	// and no repack was attempted).
	IncrementalTime time.Duration
	RepackTime      time.Duration
}

var (
	mAdmitCalls  = obs.C("lemur_placer_admit_total")
	mAdmitPins   = obs.H("lemur_placer_admit_pinned_subgroups")
	mRetireCalls = obs.C("lemur_placer_retire_total")
)

// Admit places newly arrived chains on top of a running placement without
// disturbing it. in must be prev's input grown in place: the pre-existing
// chains keep their pointers and indices (chain index determines the SPI
// range, so slots are append-only) and the new chains occupy the contiguous
// tail named by newChains.
//
// Admit first tries a pin-preserving incremental solve: every pre-existing
// chain's *Subgroup and *NICUse values are reused — same pointers, never
// mutated — and only the new chains are assigned, bound, and core-allocated
// from the leftover budget, reusing Replace's machinery with "affected" =
// "new". If that fails it falls back to a full re-solve of all active chains
// under prev.Scheme and reports AdmitRepack (the caller chooses whether the
// disruption is worth it) or AdmitInfeasible.
//
// Admit is deterministic: the same prev/in/newChains always produce the same
// report. The error return is reserved for API misuse (malformed inputs);
// placement failure is reported in the Outcome.
func Admit(prev *Result, in *Input, newChains []int) (*AdmitReport, error) {
	if prev == nil || in == nil {
		return nil, errors.New("placer: Admit needs a previous result and an input")
	}
	if !prev.Feasible {
		return nil, errors.New("placer: Admit needs a feasible previous result")
	}
	if len(newChains) == 0 {
		return nil, errors.New("placer: Admit needs at least one new chain")
	}
	if err := in.Topo.Validate(); err != nil {
		return nil, err
	}
	ncs := append([]int(nil), newChains...)
	sort.Ints(ncs)
	nOld := len(in.Chains) - len(ncs)
	if nOld < 0 || nOld != len(prev.ChainRates) {
		return nil, fmt.Errorf("placer: Admit: input has %d chains, previous result covers %d, %d new",
			len(in.Chains), len(prev.ChainRates), len(ncs))
	}
	for i, ci := range ncs {
		if ci != nOld+i {
			return nil, fmt.Errorf("placer: Admit: new chains must be the contiguous tail [%d,%d), got %v",
				nOld, len(in.Chains), newChains)
		}
	}
	in.ensurePrep()
	mAdmitCalls.Inc()
	sp := obs.Span("placer.admit").SetAttrInt("new_chains", len(ncs))

	isNew := make([]bool, len(in.Chains))
	for _, ci := range ncs {
		isNew[ci] = true
	}

	rep := &AdmitReport{}
	start := time.Now()
	best, firstReason := admitIncremental(prev, in, ncs, isNew)
	rep.IncrementalTime = time.Since(start)

	if best != nil {
		best.Scheme = prev.Scheme
		best.PlaceTime = rep.IncrementalTime
		rep.Outcome = AdmitIncremental
		rep.Result = best
		rep.PinnedSubgroups = len(prev.Subgroups)
		mAdmitPins.Observe(float64(rep.PinnedSubgroups))
		obs.C("lemur_placer_admit_outcome_total", obs.L("outcome", "incremental")).Inc()
		sp.SetAttr("outcome", "incremental").End()
		return rep, nil
	}
	rep.IncrementalReason = firstReason

	// Full repack: re-solve every active (non-retired) chain plus the new
	// ones from scratch under the previous scheme. Retired slots are
	// compacted away — a repack renumbers chains anyway.
	rstart := time.Now()
	repackIn, repackChains := compactInput(in, prev)
	full, err := Place(prev.Scheme, repackIn)
	rep.RepackTime = time.Since(rstart)
	if err != nil {
		sp.SetAttr("error", err.Error()).End()
		return nil, err
	}
	rep.RepackInput = repackIn
	rep.RepackChains = repackChains
	if full.Feasible {
		rep.Outcome = AdmitRepack
		rep.Repack = full
	} else {
		rep.Outcome = AdmitInfeasible
		if rep.IncrementalReason == "" {
			rep.IncrementalReason = full.Reason
		}
	}
	outcome := rep.Outcome.String()
	obs.C("lemur_placer_admit_outcome_total", obs.L("outcome", outcome)).Inc()
	sp.SetAttr("outcome", outcome).End()
	return rep, nil
}

// admitIncremental runs the pin-preserving attempt: baseline platform
// variants for the new chains' nodes × split-mark variants, each assembled
// with every pre-existing chain pinned. Returns the best feasible candidate
// by marginal (ties to the earlier variant) or the first failure reason.
func admitIncremental(prev *Result, in *Input, ncs []int, isNew []bool) (*Result, string) {
	newNode := map[*nfgraph.Node]bool{}
	for _, ci := range ncs {
		for _, n := range in.Chains[ci].Order {
			newNode[n] = true
		}
	}
	pinnedBreaks := filterBreaks(prev.Breaks, newNode, false)

	var cands []*Result
	firstReason := ""
	note := func(reason string) {
		if firstReason == "" {
			firstReason = reason
		}
	}
	ev := newEvalScratch(in) // one scratch serves every candidate of the call
	for _, assign := range baselineAssigns(in, prev.Assign, ncs) {
		if reason, ok := evictUntilFits(ev, assign, isNew); !ok {
			note(reason)
			continue
		}
		if reason, ok := bindReplaced(in, prev, assign, ncs, isNew); !ok {
			note(reason)
			continue
		}
		bindNICs(in, assign)
		for _, withSplits := range []bool{false, true} {
			breaks := pinnedBreaks
			if withSplits {
				marks := filterBreaks(splitBreaks(in, assign), newNode, true)
				if len(marks) == 0 {
					continue // identical to the no-split variant
				}
				breaks = mergeBreaks(pinnedBreaks, marks)
			}
			res, reason := assembleReplace(ev, prev, assign, breaks, isNew)
			if reason != "" {
				note(reason)
				continue
			}
			cands = append(cands, res)
		}
	}
	var best *Result
	for _, c := range cands {
		if best == nil || c.Marginal > best.Marginal+1e-6 {
			best = c
		}
	}
	if best == nil && firstReason == "" {
		firstReason = "no feasible incremental admission"
	}
	return best, firstReason
}

// compactInput builds the repack input: a copy of in whose Chains hold only
// the active (non-retired) chains, in original order, plus the mapping from
// repack slot to original chain index. With no retired slots the chain slice
// is in's own (identity mapping).
func compactInput(in *Input, prev *Result) (*Input, []int) {
	if prev.Retired == nil {
		idx := make([]int, len(in.Chains))
		for i := range idx {
			idx[i] = i
		}
		return in, idx
	}
	cp := *in
	cp.Chains = nil
	cp.prep = nil
	var idx []int
	for ci, g := range in.Chains {
		if prev.IsRetired(ci) {
			continue
		}
		cp.Chains = append(cp.Chains, g)
		idx = append(idx, ci)
	}
	return &cp, idx
}

// Retire removes departed chains from a running placement, reclaiming their
// PISA stages, server cores, and SmartNIC slots for later Admits. The chain
// slots stay (index determines the SPI range; slots are never reused) but
// are marked in the returned Result's Retired and stripped of every
// assignment and resource. All surviving chains' *Subgroup and *NICUse
// values are reused — same pointers, never mutated — so downstream
// per-subgroup state survives, and the surviving chains' rates are re-solved
// with the retired chains' link shares released.
//
// With an empty goneChains Retire is a pure re-validation of prev. The only
// error for a well-formed call wraps ErrInfeasible (which cannot happen when
// prev was feasible: removing chains only relaxes constraints — the property
// tests pin this).
func Retire(prev *Result, in *Input, goneChains []int) (*Result, error) {
	if prev == nil || in == nil {
		return nil, errors.New("placer: Retire needs a previous result and an input")
	}
	if !prev.Feasible {
		return nil, errors.New("placer: Retire needs a feasible previous result")
	}
	if len(in.Chains) != len(prev.ChainRates) {
		return nil, fmt.Errorf("placer: Retire: input has %d chains, previous result covers %d",
			len(in.Chains), len(prev.ChainRates))
	}
	gone := make([]bool, len(in.Chains))
	for _, ci := range goneChains {
		if ci < 0 || ci >= len(in.Chains) {
			return nil, fmt.Errorf("placer: Retire: chain index %d out of range [0,%d)", ci, len(in.Chains))
		}
		if prev.IsRetired(ci) {
			return nil, fmt.Errorf("placer: Retire: chain %d is already retired", ci)
		}
		gone[ci] = true
	}
	if err := in.Topo.Validate(); err != nil {
		return nil, err
	}
	in.ensurePrep()
	start := time.Now()
	mRetireCalls.Inc()
	sp := obs.Span("placer.retire").SetAttrInt("gone_chains", len(goneChains))

	goneNode := map[*nfgraph.Node]bool{}
	for ci := range gone {
		if !gone[ci] {
			continue
		}
		for _, n := range in.Chains[ci].Order {
			goneNode[n] = true
		}
	}
	assign := make(map[*nfgraph.Node]Assign, len(prev.Assign))
	for n, a := range prev.Assign {
		if !goneNode[n] {
			assign[n] = a
		}
	}
	res := &Result{
		Assign: assign,
		Breaks: filterBreaks(prev.Breaks, goneNode, false),
	}
	for _, sg := range prev.Subgroups {
		if !gone[sg.ChainIdx] {
			res.Subgroups = append(res.Subgroups, sg)
		}
	}
	for _, u := range prev.NICUses {
		if !gone[u.ChainIdx] {
			res.NICUses = append(res.NICUses, u)
		}
	}
	res.Retired = make([]bool, len(in.Chains))
	for ci := range res.Retired {
		res.Retired[ci] = prev.IsRetired(ci) || gone[ci]
	}

	// Re-check the shrunken placement: the switch program can only have
	// lost tables (Stages records the reclaimed verdict) and the rate LP
	// redistributes the released link capacity among the survivors.
	ev := newEvalScratch(in)
	if reason, ok := ev.check(res, ev.stageCheck, ev.checkLatency, ev.solveRates); !ok {
		sp.SetAttr("error", reason).End()
		return nil, fmt.Errorf("%w: %s", ErrInfeasible, reason)
	}
	res.Feasible = true
	res.Scheme = prev.Scheme
	res.PlaceTime = time.Since(start)
	sp.SetAttrInt("pinned_subgroups", len(res.Subgroups)).End()
	return res, nil
}
