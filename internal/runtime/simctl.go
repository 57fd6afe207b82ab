package runtime

import (
	"lemur/internal/chaos"
	"lemur/internal/metacompiler"
	"lemur/internal/nfgraph"
	"lemur/internal/obs"
	"lemur/internal/placer"
)

// The engine's control plane. Everything here runs in the run loop's serial
// section, between epochs: no shard is executing, so it may touch any
// engine state, mutate the deployment's steering, and re-partition. It uses
// shard 0's arena pools for the packets it drops.

// install makes ix the engine's dispatch index and (re)derives the dense
// accounting state behind it: cost/budget/credit arrays, one ring per
// entry, the shard partition and the metric handles. Subgroups the previous
// index already carried keep their realized cost, budget and credit (keyed
// by bess-subgroup identity) and their parked packets; the rest realize
// fresh costs (Testbed.actualCycles) from the run's rng in index order —
// name-sorted, the order the reference engine draws in — scaled by any
// degrade/overload multiplier in force. At the start of a run the previous index is empty, so everything
// is fresh; after a mid-run rewire only the re-placed subgroups are, and
// packets parked on a subgroup that did not survive are dropped, as a real
// reconfiguration loses them.
func (eng *simEngine) install(ix *simIndex) {
	cfg, rc, old := eng.cfg, eng.rc, eng.ix
	ne := len(ix.entries)
	cost, budget, credit := make([]float64, ne), make([]float64, ne), make([]float64, ne)
	for i := 0; i < ix.nPrimary; i++ {
		e := &ix.entries[i]
		if oi, ok := old.idxOf[e.sub]; ok && int(oi) < old.nPrimary && old.entries[oi].sub == e.sub {
			cost[i], budget[i], credit[i] = eng.cost[oi], eng.budget[oi], eng.credit[oi]
			continue
		}
		cost[i] = eng.tb.actualCycles(e.psg, e.cross, eng.rng) * mult(rc.costFactor, e.psg.Server)
		budget[i] = float64(e.psg.Cores) * e.srv.ClockHz * cfg.StepSec / cfg.Scale *
			mult(rc.capFactor, e.psg.Server)
	}
	// Orphan entries have zero budget and are never drained; their rings
	// only absorb parks until overflow.
	rings := make([]packetRing, ne)
	for i := range old.entries {
		r := &eng.rings[i]
		tgt, ok := ix.idxOf[old.entries[i].sub]
		for k := 0; k < r.n; k++ {
			if p := r.at(k); ok && rings[tgt].n < cfg.QueueCap {
				rings[tgt].push(p, cfg.QueueCap)
			} else {
				rc.chains[p.chain].drops++
				eng.die(eng.shards[0], p, p.frame)
			}
		}
	}
	eng.ix, eng.cost, eng.budget, eng.credit, eng.rings = ix, cost, budget, credit, rings
	eng.stepCredit = make([]float64, ix.nPrimary)
	eng.tb.simIdx = ix // keep the lazy cache coherent with the rewired deployment
	eng.partition()
}

// applyDue is the serial section: it fires every plan event that has come
// due at a step boundary, then lands every reconfiguration whose
// detection+reconfiguration window has matured. A landing that rewired the
// deployment gets a fresh index installed and restarts the post window.
func (eng *simEngine) applyDue(now float64) error {
	rc := eng.rc
	for rc.next < len(rc.events) && due(rc.events[rc.next].AtSec, now) {
		ev := &rc.events[rc.next]
		rc.next++
		if ev.Kind.Churn() {
			rc.ch.Events = append(rc.ch.Events, ev.String())
			eng.requestChurn(ev)
		} else {
			rc.fo.Events = append(rc.fo.Events, ev.String())
			eng.applyFault(ev)
		}
	}
	for len(rc.pending) > 0 && due(rc.pending[0].atSec, now) {
		ld := rc.pending[0]
		rc.pending = rc.pending[1:]
		rewired, err := eng.land(ld)
		if err != nil {
			return err
		}
		if !rewired {
			continue
		}
		ix, err := buildSimIndex(eng.tb.D)
		if err != nil {
			return err
		}
		eng.install(ix)
		rc.markPost(ld.atSec, eng.res.Egressed)
	}
	return nil
}

// applyFault fires one fault event: a crash drains and blackholes its
// device and queues the rewire that will follow the detection+reconfig
// window; a degrade or overload rescales the target server's budgets or
// costs on the spot.
func (eng *simEngine) applyFault(ev *chaos.Event) {
	rc, ix, in := eng.rc, eng.ix, eng.tb.D.Input
	switch ev.Kind {
	case chaos.Crash:
		if rc.dead[ev.Target] {
			return
		}
		rc.failed[ev.Target] = true
		for dev := range placer.NewNodeSet(ev.Target).Expand(in.Topo) {
			rc.dead[dev] = true
		}
		// Chains severed now: their placement references a dead device.
		for _, ci := range placer.AffectedChains(in, eng.tb.D.Result, rc.dead) {
			if rc.chains[ci].downSince < 0 {
				rc.chains[ci].downSince = ev.AtSec
			}
		}
		// In-flight packets parked on the dead device drop; its subgroups
		// stop serving.
		for i := range ix.entries {
			if !rc.dead[ix.entries[i].host()] {
				continue
			}
			r := &eng.rings[i]
			for k := 0; k < r.n; k++ {
				p := r.at(k)
				rc.chains[p.chain].drops++
				eng.die(eng.shards[0], p, p.frame)
			}
			r.popServed(r.n)
			if i < ix.nPrimary {
				eng.budget[i], eng.credit[i] = 0, 0
			}
		}
		// One rewire serves every crash so far: a crash inside a pending
		// rewire's window postpones it rather than queueing a second. (A
		// fault plan queues nothing else: a plan holds faults or churn.)
		rc.pending = append(rc.pending[:0], landing{atSec: ev.AtSec + rc.detect + rc.reconfig})
	case chaos.LinkDegrade, chaos.NFOverload:
		factors, scaled := rc.capFactor, eng.budget
		if ev.Kind == chaos.NFOverload {
			factors, scaled = rc.costFactor, eng.cost
		}
		factors[ev.Target] = mult(factors, ev.Target) * ev.Factor
		for i := 0; i < ix.nPrimary; i++ {
			if ix.entries[i].srv.Name == ev.Target {
				scaled[i] *= ev.Factor
			}
		}
		rc.markPost(ev.AtSec, eng.res.Egressed)
	}
}

// land applies one matured reconfiguration — the repair of every crash so
// far, an admission or a retirement — through the one incremental door:
// placer.Reconfigure against the then-current deployment (so overlapping
// events always see fresh state), then Deployment.Apply for a pin-preserving
// verdict. The kinds differ only in their bookkeeping. A failed re-placement
// after a crash is recorded, not returned: the severed chains stay down and
// the post window restarts regardless. An admission that does not fit with
// pins is recorded as a rejection, never a disruptive mid-run repack.
func (eng *simEngine) land(ld landing) (bool, error) {
	rc, d := eng.rc, eng.tb.D
	in, dl := d.Input, placer.Delta{Failed: rc.failed}
	nOld := len(in.Chains)
	ev := ld.churn // nil for a crash repair
	switch {
	case ev != nil && ev.Kind == chaos.Retire:
		dl.Retire = []int{ld.slot}
	case ev != nil:
		if eng.liveSlot(ev.Target) >= 0 {
			rc.reject(ev, "chain already running")
			return false, nil
		}
		grown := *in
		grown.Chains = append(append(make([]*nfgraph.Graph, 0, nOld+1), in.Chains...), rc.catalog[ev.Target])
		in, dl.Admit = &grown, []int{nOld}
	}
	rep, err := placer.Reconfigure(d.Result, in, dl)
	solved := err == nil && rep.Outcome == placer.AdmitIncremental
	var rw *metacompiler.RewireReport
	if solved {
		rw, err = d.Apply(in, rep.Result, dl)
	} else if err == nil {
		err = rep.Err()
	}

	switch {
	case ev == nil:
		if err != nil {
			rc.fo.ReplaceError = err.Error()
			rc.markPost(ld.atSec, eng.res.Egressed)
			return false, nil
		}
		rc.fo.RewireSummary = rw.String()
		for _, ci := range rep.Affected {
			if c := &rc.chains[ci]; c.downSince >= 0 {
				c.downtime += ld.atSec - c.downSince
				c.downSince = -1
			}
		}
		obs.C("lemur_sim_failovers_total").Inc()
		return true, nil
	case !solved && ev.Kind == chaos.Admit:
		reason := err.Error()
		if rep != nil {
			reason = rep.Outcome.String() + ": " + rep.IncrementalReason
		}
		rc.reject(ev, reason)
		return false, nil
	case err != nil:
		return false, err
	}
	rc.ch.RewireSummaries = append(rc.ch.RewireSummaries, rw.String())
	if ev.Kind == chaos.Retire {
		rc.chains[ld.slot].retiredAt = ld.atSec
		obs.C("lemur_sim_retirements_total").Inc()
		return true, nil
	}
	obs.C("lemur_sim_admissions_total").Inc()
	return true, eng.addChains(rep.Result.ChainRates[nOld:], ev.AtSec, ld.atSec)
}

// liveSlot resolves a chain name to its running (non-retired) slot in
// the current deployment, or -1.
func (eng *simEngine) liveSlot(name string) int {
	for ci, g := range eng.tb.D.Input.Chains {
		if g.Chain.Name == name && !eng.tb.D.Result.IsRetired(ci) {
			return ci
		}
	}
	return -1
}

// requestChurn fires one churn request. A retirement stops the chain's
// offered load right away (the tenant has left) and reclaims resources at
// the landing; an admission only queues — it solves at the landing, so
// overlapping events always see fresh state.
func (eng *simEngine) requestChurn(ev *chaos.Event) {
	rc := eng.rc
	ld := landing{atSec: ev.AtSec + rc.detect + rc.reconfig, churn: ev}
	if ev.Kind == chaos.Retire {
		ld.slot = eng.liveSlot(ev.Target)
		if ld.slot < 0 {
			rc.reject(ev, "no such running chain")
			return
		}
		if rc.pendingRetire(ld.slot) {
			rc.reject(ev, "already retiring")
			return
		}
		eng.offered[ld.slot] = 0
	}
	rc.pending = append(rc.pending, ld)
}
