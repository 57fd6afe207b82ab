package placer

import (
	"fmt"
	"math"
	"slices"
)

// The tail-latency admission check (the d_max_p99 SLO): where checkLatency
// bounds the fixed worst-path delay, this bounds the 99th percentile
// including queueing at the LP-assigned operating point. Each server
// subgroup is modeled as an M/M/1 queue at utilization ρ = λ/μ, whose
// waiting time satisfies P(W > t) = ρ·e^{-(μ-λ)t}, so the p99 wait is
// ln(100ρ)/(μ-λ) (zero when 100ρ <= 1, unbounded at ρ >= 1).

// checkTailLatency predicts each chain's p99 delay at the solved rates —
// worstPathSec's tail model — records it in Result.PredictedP99Sec, and
// rejects the placement if a chain with a d_max_p99 bound exceeds it. finish
// runs it after solveRates (the estimate needs ChainRates).
func (ev *evalScratch) checkTailLatency() (string, bool) {
	in, res, p := ev.in, ev.res, ev.p
	res.PredictedP99Sec = grown(res.PredictedP99Sec, len(in.Chains))
	// subOf maps a dense node index to its subgroup's index (-1: none);
	// seen[si] holds the number of the last path that counted subgroup si.
	ev.subOf = slices.Grow(ev.subOf[:0], len(p.nodes))
	for range p.nodes {
		ev.subOf = append(ev.subOf, -1)
	}
	ev.seen, ev.pathNo = append(ev.seen[:0], make([]int, len(res.Subgroups))...), 0
	for si, sg := range res.Subgroups {
		for _, n := range sg.Nodes {
			ev.subOf[p.base[sg.ChainIdx]+n.Seq] = si
		}
	}
	for ci, g := range in.Chains {
		if res.IsRetired(ci) {
			continue
		}
		worst := ev.worstPathSec(ci, true)
		res.PredictedP99Sec[ci] = worst
		bound := g.Chain.SLO.DMaxP99Sec
		if bound <= 0 {
			continue
		}
		if math.IsInf(worst, 1) {
			return fmt.Sprintf("chain %s: predicted p99 delay is unbounded (a subgroup on its worst path runs at ρ >= 1) against d_max_p99 %.1fus",
				g.Chain.Name, bound*1e6), false
		}
		if worst > bound {
			return fmt.Sprintf("chain %s: predicted p99 delay %.1fus exceeds d_max_p99 %.1fus",
				g.Chain.Name, worst*1e6, bound*1e6), false
		}
	}
	return "", true
}

// mm1P99WaitSec is the M/M/1 99th-percentile waiting time of one server
// subgroup fed its chain's rate share: service rate μ = cores·clock/cycles
// packets/sec, arrival rate λ = rate·weight/frame bits. Returns 0 for idle
// or near-idle queues (100ρ <= 1) and +Inf at ρ >= 1.
func mm1P99WaitSec(in *Input, sg *Subgroup, rateBps float64) float64 {
	if sg.Cycles <= 0 || sg.Cores <= 0 {
		return 0
	}
	mu := float64(sg.Cores) * in.clockHz() / sg.Cycles
	lam := rateBps * sg.Weight / DefaultFrameBits
	if lam >= mu {
		return math.Inf(1)
	}
	rho := lam / mu
	if 100*rho <= 1 {
		return 0
	}
	return math.Log(100*rho) / (mu - lam)
}
