package runtime

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"lemur/internal/obs"
	"lemur/internal/placer"
)

// Deadline-aware queue draining: when any chain carries a delay SLO (d_max
// or d_max_p99), the simulator drains same-shard subgroup queues
// earliest-deadline-first by the metacompiler's per-subgroup slack — the
// same order the emitted BESS scheduler trees encode — instead of the
// name-sorted round-robin sweep. Only the drain sweep reorders; credit
// refill, arrivals, and core-utilization accounting keep index order, so a
// deadline-free deployment (or the explicit "rr" policy) is byte-identical
// to the pre-EDF engine at any worker count.

// Scheduler policy names accepted by SimConfig.SchedPolicy.
const (
	// SchedEDF drains queues earliest-deadline-first by subgroup slack.
	SchedEDF = "edf"
	// SchedRR forces the legacy round-robin drain order even when chains
	// carry deadlines (the baseline arm of the latency experiments).
	SchedRR = "rr"
)

// schedEDF resolves the configured policy: true means deadline slacks order
// the drain sweep ("" and "edf" — with no deadlines the order degenerates
// to round-robin either way), false means forced round-robin ("rr").
func (c *SimConfig) schedEDF() (bool, error) {
	switch c.SchedPolicy {
	case "", SchedEDF:
		return true, nil
	case SchedRR:
		return false, nil
	default:
		return false, fmt.Errorf("runtime: unknown scheduler policy %q (want %q or %q)", c.SchedPolicy, SchedEDF, SchedRR)
	}
}

// drainOrder permutes a shard's primary entries for the queue-drain sweep:
// deadline-bearing subgroups first in ascending slack (ties keep their
// index order), then deadline-free subgroups in index order. When nothing
// carries a deadline it returns prims itself, so the sweep — and every
// byte of downstream output — matches the pre-EDF engine exactly.
func drainOrder(prims []int32, slackOf func(int32) (float64, bool)) []int32 {
	any := false
	for _, pi := range prims {
		if _, ok := slackOf(pi); ok {
			any = true
			break
		}
	}
	if !any {
		return prims
	}
	out := append([]int32(nil), prims...)
	sort.SliceStable(out, func(a, b int) bool {
		sa, oka := slackOf(out[a])
		sb, okb := slackOf(out[b])
		if oka != okb {
			return oka
		}
		return oka && sa < sb
	})
	return out
}

// refreshDrainOrder recomputes every shard's drain permutation from the
// deployment's current deadline slacks. hoist calls it after each
// shard-primary (re)assignment — initial partition and every mid-run
// rewire — so the order always reflects the live placement.
func (eng *simEngine) refreshDrainOrder() {
	var slacks map[*placer.Subgroup]float64
	if eng.edf {
		slacks = eng.tb.D.DeadlineSlacks()
	}
	for _, sh := range eng.shards {
		sh.drain = drainOrder(sh.prims, func(pi int32) (float64, bool) {
			s, ok := slacks[eng.ix.entries[pi].psg]
			return s, ok
		})
	}
}

// deadlineCompliance computes per-chain deadline-SLO compliance — the
// fraction of egressed packets whose accumulated queue wait fit inside the
// chain's effective deadline (the fixed propagation and execution delays
// are the placer's admission checks; the simulator owns the queueing share)
// — and bumps the met/missed counters on the default registry. Chains
// without a deadline report 1 (vacuously compliant); a nil return means no
// chain carries a deadline and nothing was registered.
func deadlineCompliance(tails []delayTail) []float64 {
	if !slices.ContainsFunc(tails, func(t delayTail) bool { return t.deadline > 0 }) {
		return nil
	}
	comp := make([]float64, len(tails))
	for ci := range tails {
		t := &tails[ci]
		if t.deadline <= 0 {
			comp[ci] = 1
			continue
		}
		if t.n > 0 {
			comp[ci] = float64(t.met) / float64(t.n)
		}
		lbl := obs.L("chain", strconv.Itoa(ci))
		obs.C("lemur_sim_deadline_met_total", lbl).Add(uint64(t.met))
		obs.C("lemur_sim_deadline_missed_total", lbl).Add(uint64(t.n - t.met))
	}
	return comp
}
