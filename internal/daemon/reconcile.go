package daemon

import (
	"context"
	"fmt"
	"time"

	"lemur/internal/hw"
	"lemur/internal/metacompiler"
	"lemur/internal/nfgraph"
	"lemur/internal/placer"
)

// ReconcileResult reports what one level-triggered pass did. Every field is
// a pure function of the daemon's inputs when driven by a FakeClock, which
// is what makes the reconcile loop benchmarkable (experiments.ReconcileSweep
// asserts byte-identical result sequences at any placer parallelism).
type ReconcileResult struct {
	// Generation is the desired-state generation the pass reconciled
	// toward; AppliedGen the generation actual state matches after it.
	Generation int64 `json:"generation"`
	AppliedGen int64 `json:"applied_generation"`
	// Converged reports desired == actual with all failures handled.
	Converged bool `json:"converged"`
	// ChaosFired lists chaos-plan crash targets injected this pass.
	ChaosFired []string `json:"chaos_fired,omitempty"`
	// Admitted, Retired, and Replaced list the chain names admitted and
	// retired and the failure names newly repaired this pass.
	Admitted []string `json:"admitted,omitempty"`
	Retired  []string `json:"retired,omitempty"`
	Replaced []string `json:"replaced,omitempty"`
	// Repacked reports that the pass applied a full repack (AllowRepack).
	Repacked bool `json:"repacked,omitempty"`
	// PinnedSubgroups counts subgroups carried by pointer through this
	// pass's admission — the zero-disruption measure.
	PinnedSubgroups int `json:"pinned_subgroups,omitempty"`
	// Err is the transient failure that put the loop into backoff, if any;
	// BackoffUntil is the earliest retry instant (zero when not backing
	// off).
	Err          string    `json:"err,omitempty"`
	BackoffUntil time.Time `json:"backoff_until"`
}

// Tick runs one reconcile pass: poll the watched directory, fire due
// chaos-plan crashes, then diff desired vs. actual and apply. It is the
// level-triggered unit Run repeats every Interval; tests call it directly.
func (d *Daemon) Tick() *ReconcileResult {
	d.pollWatch()
	d.mu.Lock()
	defer d.mu.Unlock()
	fired := d.fireChaosLocked(d.clock.Now())
	rr := d.reconcileLocked()
	rr.ChaosFired = fired
	return rr
}

// Run drives Tick every Config.Interval until ctx is done. When
// Config.TickNotify is set, every result is sent (blocking) before the next
// sleep — with a FakeClock this lets a test advance time in lockstep:
// receive a result, BlockUntil(1), Advance(Interval), receive the next.
func (d *Daemon) Run(ctx context.Context) {
	for {
		rr := d.Tick()
		if d.cfg.TickNotify != nil {
			select {
			case d.cfg.TickNotify <- rr:
			case <-ctx.Done():
				return
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-d.clock.After(d.cfg.Interval):
		}
	}
}

// reconcileLocked is one pass over the desired-vs-actual diff, with the
// backoff gate in front of the apply.
func (d *Daemon) reconcileLocked() *ReconcileResult {
	now := d.clock.Now()
	d.counters.Reconciles++
	mReconciles.Inc()
	rr := &ReconcileResult{Generation: d.generation, AppliedGen: d.appliedGen}

	if d.desired == nil {
		d.converged = d.st == nil
		rr.Converged = d.converged
		d.setGaugesLocked()
		return rr
	}

	if d.backoff.active {
		fresh := d.backoff.gen != d.generation || d.backoff.failKey != d.failKeyLocked()
		if !fresh && now.Before(d.backoff.until) {
			rr.Err = d.backoff.lastErr
			rr.BackoffUntil = d.backoff.until
			d.setGaugesLocked()
			return rr
		}
		// Deadline passed, or the inputs that failed changed: retry now.
		d.counters.BackoffRetries++
		mBackoffRetries.Inc()
	}

	applyStart := time.Now()
	mutated, err := d.applyLocked(rr)
	if mutated {
		d.counters.Applies++
		mApplies.Inc()
		mApplyLatency.Observe(time.Since(applyStart).Seconds())
	}
	if err != nil {
		d.counters.Errors++
		mReconcileErrs.Inc()
		d.lastErr = err.Error()
		rr.Err = err.Error()
		d.converged = false
		d.armBackoffLocked(now, err)
		rr.BackoffUntil = d.backoff.until
	} else {
		d.lastErr = ""
		d.backoff = backoffState{}
		d.appliedGen = d.generation
		d.converged = true
		rr.AppliedGen = d.appliedGen
		rr.Converged = true
	}
	d.passed = true
	d.setGaugesLocked()
	d.compactLocked()
	return rr
}

// armBackoffLocked schedules the next retry after a transient failure:
// exponential from one Interval, doubling per consecutive failure of the
// same (generation, failure-set) inputs, capped at MaxBackoff. A failure of
// different inputs restarts the exponential.
func (d *Daemon) armBackoffLocked(now time.Time, err error) {
	key := d.failKeyLocked()
	if d.backoff.active && d.backoff.gen == d.generation && d.backoff.failKey == key {
		d.backoff.failures++
	} else {
		d.backoff = backoffState{failures: 1, gen: d.generation, failKey: key}
	}
	d.backoff.active = true
	d.backoff.lastErr = err.Error()
	delay := d.cfg.Interval
	for i := 1; i < d.backoff.failures && delay < d.cfg.MaxBackoff; i++ {
		delay *= 2
	}
	if delay > d.cfg.MaxBackoff {
		delay = d.cfg.MaxBackoff
	}
	d.backoff.until = now.Add(delay)
}

// setGaugesLocked refreshes the lemurd_* gauges from current state.
func (d *Daemon) setGaugesLocked() {
	gGeneration.Set(float64(d.generation))
	gAppliedGen.Set(float64(d.appliedGen))
	if d.desired != nil {
		gDesiredChains.Set(float64(len(d.desired.graphs)))
	}
	active, free, dead := 0, 0, 0
	if d.st != nil {
		for _, s := range d.st.slots {
			if !s.Retired {
				active++
			}
		}
		free = d.freeCoresLocked()
		dead = len(d.st.dead)
	}
	gActualChains.Set(float64(active))
	gHeadroomFree.Set(float64(free))
	gFailedNodes.Set(float64(dead))
	if d.converged {
		gConverged.Set(1)
	} else {
		gConverged.Set(0)
	}
}

// restrictFor maps the spec's FwdP4Only knob onto the placer's platform
// restriction (the evaluation setting pins IPv4Fwd to the PISA switch).
func restrictFor(s *Spec) map[string][]hw.Platform {
	if !s.fwdP4Only() {
		return nil
	}
	return map[string][]hw.Platform{"IPv4Fwd": {hw.PISA}}
}

// applyLocked drives the actual state toward d.desired: a first apply
// (place + compile the whole desired chain set) when nothing runs yet, then
// one delta — the slots to retire, the tail to admit, the cumulative failure
// set — through one placer.Reconfigure and one Deployment.Apply. An empty
// delta makes no call (Reconfigure would mint a fresh Result and break
// idempotence). When the admissions make the delta infeasible it is asked
// again without them, so retirements and failure repair still land this
// pass; the admission error is returned either way and arms the backoff. It
// reports whether the running deployment changed.
func (d *Daemon) applyLocked(rr *ReconcileResult) (bool, error) {
	vs := d.desired
	mutated := false

	if d.st == nil {
		in := &placer.Input{
			Chains:        append([]*nfgraph.Graph(nil), vs.graphs...),
			Topo:          vs.topo,
			DB:            defaultDB(),
			Restrict:      restrictFor(vs.spec),
			Parallel:      vs.spec.Placement.Parallel,
			HeadroomCores: vs.spec.Placement.HeadroomCores,
		}
		res, err := placer.Place(vs.spec.scheme(), in)
		if err != nil {
			return false, fmt.Errorf("initial placement: %w", err)
		}
		if !res.Feasible {
			return false, fmt.Errorf("initial placement infeasible: %s", res.Reason)
		}
		slots := make([]slotState, len(vs.chains))
		for i, c := range vs.chains {
			slots[i] = slotState{Name: c.Name, FP: vs.fp[i]}
			rr.Admitted = append(rr.Admitted, c.Name)
		}
		if err := d.deployLocked("initial", in, res, slots); err != nil {
			return false, err
		}
		mutated = true
	}
	st := d.st

	// The diff. A running slot whose name is gone from the spec, or whose
	// fingerprint differs (the chain was redefined), retires; every desired
	// chain without a live, fingerprint-matching slot joins as a contiguous
	// tail of new slots, in desired-spec order (a redefined chain re-admits
	// into a fresh slot); every failure name not yet handled is new.
	desiredFP, liveFP := map[string]string{}, map[string]string{}
	for i, c := range vs.chains {
		desiredFP[c.Name] = vs.fp[i]
	}
	var dl placer.Delta
	var retired []string
	for si, s := range st.slots {
		if s.Retired {
			continue
		}
		liveFP[s.Name] = s.FP
		if fp, ok := desiredFP[s.Name]; !ok || fp != s.FP {
			dl.Retire = append(dl.Retire, si)
			retired = append(retired, s.Name)
		}
	}
	in := st.in
	var admitted []slotState
	var names []string
	for i, c := range vs.chains {
		if fp, ok := liveFP[c.Name]; ok && fp == vs.fp[i] {
			continue
		}
		if admitted == nil {
			grown := *st.in
			grown.Chains = append([]*nfgraph.Graph(nil), st.in.Chains...)
			in = &grown
		}
		dl.Admit = append(dl.Admit, len(in.Chains))
		in.Chains = append(in.Chains, vs.graphs[i])
		admitted = append(admitted, slotState{Name: c.Name, FP: vs.fp[i]})
		names = append(names, c.Name)
	}
	target := d.targetFailuresLocked()
	var newFail []string
	for _, n := range target {
		if !st.handled[n] {
			newFail = append(newFail, n)
		}
	}
	if len(dl.Retire)+len(dl.Admit)+len(newFail) == 0 {
		return mutated, nil
	}
	dl.Failed = placer.NewNodeSet(target...)
	dead := dl.Failed.Expand(st.topo)

	rep, err := placer.Reconfigure(st.res, in, dl)
	var admitErr error
	if err == nil && len(dl.Admit) > 0 {
		switch {
		case rep.Outcome == placer.AdmitIncremental:
		case rep.Outcome == placer.AdmitInfeasible:
			admitErr = fmt.Errorf("admitting %v infeasible: %s", names, rep.IncrementalReason)
		case !d.cfg.AllowRepack:
			admitErr = fmt.Errorf("admitting %v needs a full repack (%s); repacks are disabled (-allow-repack)",
				names, rep.IncrementalReason)
		case len(dead) > 0:
			admitErr = fmt.Errorf("admitting %v needs a full repack but %d devices have failed; the slot table assumes the full rack",
				names, len(dead))
		}
		if admitErr != nil {
			if len(dl.Retire)+len(newFail) == 0 {
				return mutated, admitErr
			}
			in, dl.Admit, admitted, names = st.in, nil, nil, nil
			rep, err = placer.Reconfigure(st.res, in, dl)
		}
	}
	if err != nil {
		return mutated, fmt.Errorf("reconfigure: %w", err)
	}

	switch rep.Outcome {
	case placer.AdmitIncremental:
		if _, err := st.dep.Apply(in, rep.Result, dl); err != nil {
			return mutated, fmt.Errorf("apply: %w", err)
		}
		st.in, st.res = in, rep.Result
		for _, si := range dl.Retire {
			st.slots[si].Retired = true
		}
		st.slots = append(st.slots, admitted...)
		if len(dl.Admit) > 0 {
			rr.PinnedSubgroups = rep.PinnedSubgroups
		}
	case placer.AdmitRepack:
		// An allowed repack: every chain's dataplane state moves and the slot
		// table is rebuilt from the repack's chain mapping — retired slots are
		// compacted away, so slot indices (and SPI ranges) change.
		all := append(st.slots[:len(st.slots):len(st.slots)], admitted...)
		slots := make([]slotState, len(rep.RepackChains))
		for j, orig := range rep.RepackChains {
			slots[j] = all[orig]
		}
		if err := d.deployLocked("repack", rep.RepackInput, rep.Repack, slots); err != nil {
			return mutated, err
		}
		rr.Repacked = true
	default:
		return mutated, fmt.Errorf("re-placement (retiring %v, failed %v): %w", retired, target, rep.Err())
	}
	rr.Admitted = append(rr.Admitted, names...)
	rr.Retired = retired
	rr.Replaced = newFail
	st.dead = dead
	for _, n := range newFail {
		st.handled[n] = true
	}
	if len(newFail) > 0 && !d.replaying {
		d.appendSnapshotLocked(snapEntry{Kind: snapFailures, Nodes: newFail})
	}
	return true, admitErr
}

// deployLocked compiles a whole-rack placement and makes it the actual
// state with the given slot table: the common tail of the first apply and
// of an allowed repack. Every chain's dataplane state is (re)built.
func (d *Daemon) deployLocked(what string, in *placer.Input, res *placer.Result, slots []slotState) error {
	dep, err := metacompiler.Compile(in, res)
	if err != nil {
		return fmt.Errorf("%s compile: %w", what, err)
	}
	if d.st == nil {
		d.st = &actualState{
			topo:    in.Topo,
			handled: map[string]bool{},
			dead:    placer.NodeSet{},
			hwKey:   hardwareKey(d.desired.spec),
		}
	}
	d.st.in, d.st.res, d.st.dep, d.st.slots = in, res, dep, slots
	return nil
}
