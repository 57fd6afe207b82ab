package runtime

import (
	"fmt"

	"lemur/internal/chaos"
	"lemur/internal/nfgraph"
	"lemur/internal/obs"
	"lemur/internal/placer"
)

// landing is a reconfiguration waiting out the detection+reconfiguration
// window: the rewire that follows a crash, or a churn request.
type landing struct {
	atSec float64      // request (or crash) time plus both delays
	churn *chaos.Event // the request landing; nil for a crash rewire
	slot  int          // resolved chain slot (retire only)
}

// chainReconf is the per-chain-slot share of the reconfiguration state.
// Times are simulated seconds; a negative time means "not applicable".
type chainReconf struct {
	downSince float64 // >= 0 while a crash leaves the chain without a placement
	downtime  float64 // accumulated over closed down intervals

	admitReqSec  float64 // admission request time; < 0 for chains running from the start
	admittedAt   float64 // time the admitted chain's rules landed
	admitLatency float64 // request → first egressed packet; < 0 until one egresses
	retiredAt    float64 // time the retirement landed

	drops        int // packets lost to the reconfigurations themselves
	egressAtPost int // egress count at the start of the post window
}

// reconfCtx is the live reconfiguration state of one Simulate run: the
// plan's time-ordered events (one cursor asks "what is due next"), its
// delay model, the time-ordered queue of landings, the fault state (dead
// devices, budget and cost multipliers), and the post-window bookkeeping
// both reports are cut from. Every run has one; an empty plan has no
// events, so nothing ever comes due and the whole run is a single epoch.
type reconfCtx struct {
	events           []chaos.Event
	next             int
	detect, reconfig float64
	catalog          map[string]*nfgraph.Graph

	// pending is time-ordered by construction: events fire in time order
	// and every landing is its request time plus the same delay.
	pending []landing

	failed     placer.NodeSet     // raw crash targets, cumulative
	dead       placer.NodeSet     // crash targets expanded with hosted NICs
	capFactor  map[string]float64 // per-server budget multiplier (degrade)
	costFactor map[string]float64 // per-server cost multiplier (overload)

	chains    []chainReconf
	postStart float64 // start of the post-reconfiguration measurement window

	fo *FailoverReport // non-nil for a non-empty fault plan
	ch *ChurnReport    // non-nil for a non-empty churn plan
}

// newReconfCtx validates the config's plan against the deployment and
// builds the run state. The reports only exist for a non-empty plan, which
// keeps plan-free output byte-identical to the engine before failover and
// churn existed.
func newReconfCtx(tb *Testbed, cfg *SimConfig) (*reconfCtx, error) {
	rc := &reconfCtx{}
	if plan := cfg.Faults; !plan.Empty() {
		if err := validatePlan(tb, plan, cfg.ChurnCatalog); err != nil {
			return nil, err
		}
		rc.detect, rc.reconfig = plan.Delays()
		rc.events = append([]chaos.Event(nil), plan.Normalize().Events...)
		if rc.events[0].Kind.Churn() {
			rc.catalog = cfg.ChurnCatalog
			rc.ch = &ChurnReport{DetectionDelaySec: rc.detect, ReconfigDelaySec: rc.reconfig}
		} else {
			// Only a fault plan writes these; everyone else reads them nil.
			rc.failed, rc.dead = placer.NodeSet{}, placer.NodeSet{}
			rc.capFactor, rc.costFactor = map[string]float64{}, map[string]float64{}
			rc.fo = &FailoverReport{DetectionDelaySec: rc.detect, ReconfigDelaySec: rc.reconfig}
		}
	}
	return rc, nil
}

// static reports whether the run can never reconfigure: no event will fire,
// so it carries no failover or churn report to close.
func (rc *reconfCtx) static() bool { return len(rc.events) == 0 }

// due is the one firing predicate: an event or landing scheduled for t is
// applied in the serial section of the first step that starts at or after
// t (with a guard for accumulated float error in step*StepSec).
func due(t, now float64) bool { return t <= now+1e-12 }

// dueStep is the first step whose serial section finds t due — the exact
// inverse of due over now = step*stepSec, so an epoch that runs up to it
// fires everything at the very step a step-by-step run would. Capped at
// limit.
func dueStep(t, stepSec float64, limit int) int {
	if t/stepSec >= float64(limit) {
		return limit
	}
	s := int(t / stepSec)
	for s > 0 && due(t, float64(s-1)*stepSec) {
		s--
	}
	for !due(t, float64(s)*stepSec) {
		s++
	}
	return min(s, limit)
}

// nextBoundary returns the step at which the epoch starting at `step` must
// end because the serial section may have work again: the next event, the
// next landing, else the end of the run. While a mid-run-admitted chain
// still awaits its first egress every step is a boundary — AdmitLatencySec
// is defined at step granularity, and noteFirstEgress can only observe that
// at a barrier.
func (rc *reconfCtx) nextBoundary(step, steps int, stepSec float64) int {
	for i := range rc.chains {
		if c := &rc.chains[i]; c.admitReqSec >= 0 && c.admitLatency < 0 {
			return step + 1
		}
	}
	end := steps
	if rc.next < len(rc.events) {
		end = dueStep(rc.events[rc.next].AtSec, stepSec, end)
	}
	if len(rc.pending) > 0 {
		end = dueStep(rc.pending[0].atSec, stepSec, end)
	}
	return max(end, step+1)
}

// addChain extends the per-chain state by one slot: admitted mid-run when
// reqSec >= 0 (request and landing times recorded), running from the start
// otherwise.
func (rc *reconfCtx) addChain(reqSec, landSec float64) {
	rc.chains = append(rc.chains, chainReconf{
		downSince: -1, admitReqSec: reqSec, admittedAt: landSec, admitLatency: -1, retiredAt: -1,
	})
}

// reject records a churn request that could not be applied.
func (rc *reconfCtx) reject(ev *chaos.Event, reason string) {
	rc.ch.Rejected = append(rc.ch.Rejected, fmt.Sprintf("%s: %s", ev.String(), reason))
}

// pendingRetire reports whether a retirement for slot is already queued.
func (rc *reconfCtx) pendingRetire(slot int) bool {
	for _, ld := range rc.pending {
		if ld.churn != nil && ld.churn.Kind == chaos.Retire && ld.slot == slot {
			return true
		}
	}
	return false
}

// markPost moves the post-reconfiguration measurement window to start at t,
// snapshotting per-chain egress counts so finalize can difference them.
func (rc *reconfCtx) markPost(t float64, egressed []int) {
	if t < rc.postStart {
		return
	}
	rc.postStart = t
	for ci := range rc.chains {
		rc.chains[ci].egressAtPost = egressed[ci]
	}
}

// noteFirstEgress records, at an epoch barrier ending at now, the admission
// latency of any mid-run-admitted chain whose first packet has egressed.
func (rc *reconfCtx) noteFirstEgress(now float64, egressed []int) {
	for ci := range rc.chains {
		if c := &rc.chains[ci]; c.admitReqSec >= 0 && c.admitLatency < 0 && egressed[ci] > 0 {
			c.admitLatency = now - c.admitReqSec
		}
	}
}

// rateSLOShare is the share of its wanted rate a simulated chain must
// achieve for the rate half of its SLO to hold. It is a margin for
// discretization, not a derived bound: an achieved rate counts whole
// frames, each standing for SimConfig.Scale of them, that egressed inside a
// finite window served in StepSec quanta, so the frames still queued or in
// flight at the window's edges make a chain served at exactly its wanted
// rate read somewhat below it.
const rateSLOShare = 0.9

// MeetsRateSLO reports whether a chain that achieved achievedBps met the
// rate half of its SLO (its t_min, tminBps; 0 means none) when it was
// offered offeredBps: it must reach rateSLOShare of the smaller of the two,
// since a chain offered less than its t_min cannot carry more than it is
// offered. Deterministic. It is the simulator's post-window verdict
// (FailoverReport.PostSLOCompliant, ChurnReport.PostSLOCompliant) and the
// evaluation's fault-free one.
func MeetsRateSLO(achievedBps, offeredBps, tminBps float64) bool {
	want := offeredBps
	if tminBps > 0 && tminBps < want {
		want = tminBps
	}
	return achievedBps >= want*rateSLOShare
}

// finalize closes whichever report the run carries. Chains still down
// accrue downtime to the end of the run. The post window runs from the last
// reconfiguration effect (rewire or churn landing, degrade/overload onset)
// to the end; each chain's achieved rate over it is judged by MeetsRateSLO,
// and retired chains demand nothing and pass trivially. eng.offered is by
// now the final per-slot vector: admitted chains appended, retired chains
// zeroed.
func (rc *reconfCtx) finalize(eng *simEngine) {
	if rc.static() {
		return
	}
	res, tb, cfg := eng.res, eng.tb, eng.cfg
	n := len(rc.chains)
	window := cfg.DurationSec - rc.postStart
	postBps, postOK := make([]float64, n), make([]bool, n)
	drops, totalDrops := make([]int, n), 0
	for ci := range rc.chains {
		c := &rc.chains[ci]
		if c.downSince >= 0 {
			c.downtime += cfg.DurationSec - c.downSince
			c.downSince = -1
		}
		drops[ci] = c.drops
		totalDrops += c.drops
		if window <= 0 {
			continue
		}
		postBps[ci] = float64(res.Egressed[ci]-c.egressAtPost) * eng.frameBits * cfg.Scale / window
		postOK[ci] = tb.D.Result.IsRetired(ci) ||
			MeetsRateSLO(postBps[ci], eng.offered[ci], tb.D.Input.Chains[ci].Chain.SLO.TMinBps)
	}
	if fo := rc.fo; fo != nil {
		res.Failover = fo
		fo.FaultDrops, fo.PostWindowSec, fo.PostAchievedBps, fo.PostSLOCompliant = drops, window, postBps, postOK
		fo.DowntimeSec = make([]float64, n)
		for ci, c := range rc.chains {
			fo.DowntimeSec[ci] = c.downtime
		}
		obs.C("lemur_sim_fault_events_total").Add(uint64(len(fo.Events)))
		obs.C("lemur_sim_fault_drops_total").Add(uint64(totalDrops))
	}
	if ch := rc.ch; ch != nil {
		res.Churn = ch
		ch.ChurnDrops, ch.PostWindowSec, ch.PostAchievedBps, ch.PostSLOCompliant = drops, window, postBps, postOK
		ch.AdmittedAtSec, ch.AdmitLatencySec, ch.RetiredAtSec = make([]float64, n), make([]float64, n), make([]float64, n)
		for ci, c := range rc.chains {
			ch.AdmittedAtSec[ci], ch.AdmitLatencySec[ci], ch.RetiredAtSec[ci] = c.admittedAt, c.admitLatency, c.retiredAt
		}
		obs.C("lemur_sim_churn_events_total").Add(uint64(len(ch.Events)))
		obs.C("lemur_sim_churn_drops_total").Add(uint64(totalDrops))
	}
}
