package runtime

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"lemur/internal/bess"
	"lemur/internal/nf"
	"lemur/internal/nsh"
	"lemur/internal/obs"
	"lemur/internal/pisa"
	"lemur/internal/placer"
	"lemur/internal/profile"
)

// ownCopy is the copying contract the oracles in this package walk under:
// each device hop runs in place on a private copy of the frame, so the
// caller's buffer is never touched and every hop's output owns its own.
func ownCopy(frame []byte) []byte { return append([]byte(nil), frame...) }

// simulateReference is the retained reference implementation of Simulate:
// one packet at a time, map-keyed queues and budgets, a private frame copy
// per hop (ownCopy), and O(subgroups) pipelineOf/primaryOf scans per hop.
// It is deliberately simple and slow; the in-package determinism property
// tests hold the batched arena engine in sim.go byte-identical to it
// (SimResult and the exported metrics snapshot) for any fixed seed.
func (tb *Testbed) simulateReference(offered []float64, cfg SimConfig) (*SimResult, error) {
	cfg.defaults()
	in := tb.D.Input
	if len(offered) != len(in.Chains) {
		return nil, fmt.Errorf("runtime: offered %d rates for %d chains", len(offered), len(in.Chains))
	}
	edf, err := cfg.schedEDF()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed*17 + 3))
	env := &nf.Env{Rand: rng}

	// Traffic generators per chain (FlowScale-aware, same construction as
	// the fast engine).
	gens := make([]frameSource, len(in.Chains))
	for ci, g := range in.Chains {
		gen, err := tb.newChainGen(g.Chain.Aggregate, ci, &cfg)
		if err != nil {
			return nil, err
		}
		gens[ci] = gen
	}

	// Realized per-packet costs and budgets, keyed by *primary* subgroup
	// (aliases — merge suffixes installed under sibling SPIs — resolve to
	// their primary so budgets are not double-counted). SubgroupOf is a map,
	// so primaries are collected and sorted *before* any rng draw: otherwise
	// map-iteration order would hand each subgroup a different random cost
	// from run to run and break seeded reproducibility.
	costOf := map[*bess.Subgroup]float64{}
	budgetOf := map[*bess.Subgroup]float64{}
	queues := map[*bess.Subgroup][]*simPacket{}
	var primaries []*bess.Subgroup
	for sub := range tb.D.SubgroupOf {
		if len(sub.Shares) == 0 {
			continue // alias
		}
		primaries = append(primaries, sub)
	}
	sort.Slice(primaries, func(i, j int) bool { return primaries[i].Name < primaries[j].Name })
	for _, sub := range primaries {
		psg := tb.D.SubgroupOf[sub]
		srv, err := in.Topo.ServerByName(psg.Server)
		if err != nil {
			return nil, err
		}
		cost := in.Topo.EncapCycles + in.Topo.DemuxCycles
		for _, n := range psg.Nodes {
			worst := in.DB.WorstCycles(n.Class(), n.Inst.Params)
			floor := profile.NoiseFloor(n.Class())
			cost += worst * (floor + rng.Float64()*(1-floor))
		}
		if crossSocket(srv, tb.D.Shares[psg]) {
			cost *= in.Topo.CrossSocketPenalty
		}
		costOf[sub] = cost
		budgetOf[sub] = float64(psg.Cores) * srv.ClockHz * cfg.StepSec / cfg.Scale
	}

	// Drain order: the same EDF permutation the fast engine computes —
	// deadline-bearing subgroups first by ascending slack, everything else
	// in name order. Identity (primaries order) for deadline-free runs.
	drainIdx := make([]int32, len(primaries))
	for i := range drainIdx {
		drainIdx[i] = int32(i)
	}
	var slacks map[*placer.Subgroup]float64
	if edf {
		slacks = tb.D.DeadlineSlacks()
	}
	drainIdx = drainOrder(drainIdx, func(pi int32) (float64, bool) {
		s, ok := slacks[tb.D.SubgroupOf[primaries[pi]]]
		return s, ok
	})

	// Per-subgroup and per-core metric handles, hoisted so the step loop
	// pays one atomic branch per observation. Handle slices are indexed in
	// primaries (sorted) order, keeping observation order — and therefore
	// histogram float sums — deterministic for a fixed seed.
	qDepthH := make([]*obs.Histogram, len(primaries))
	qDelayH := make([]*obs.Histogram, len(primaries))
	coreUtilH := make([][]*obs.Histogram, len(primaries))
	for i, sub := range primaries {
		psg := tb.D.SubgroupOf[sub]
		qDepthH[i] = obs.H("lemur_sim_queue_depth", obs.L("subgroup", psg.Name()))
		qDelayH[i] = obs.H("lemur_sim_queue_delay_seconds", obs.L("subgroup", psg.Name()))
		for _, cs := range tb.D.Shares[psg] {
			coreUtilH[i] = append(coreUtilH[i], obs.H("lemur_bess_core_utilization",
				obs.L("server", psg.Server), obs.L("core", strconv.Itoa(cs.Core))))
		}
	}
	injC := make([]*obs.Counter, len(offered))
	egrC := make([]*obs.Counter, len(offered))
	drpC := make([]*obs.Counter, len(offered))
	for ci := range offered {
		lbl := obs.L("chain", strconv.Itoa(ci))
		injC[ci] = obs.C("lemur_sim_injected_total", lbl)
		egrC[ci] = obs.C("lemur_sim_egressed_total", lbl)
		drpC[ci] = obs.C("lemur_sim_dropped_total", lbl)
	}

	res := &SimResult{
		OfferedBps:       append([]float64(nil), offered...),
		AchievedBps:      make([]float64, len(offered)),
		DropRate:         make([]float64, len(offered)),
		AvgQueueDelaySec: make([]float64, len(offered)),
		Injected:         make([]int, len(offered)),
		Egressed:         make([]int, len(offered)),
	}
	dropped := make([]int, len(offered))
	drop := func(ci int) {
		dropped[ci]++
		drpC[ci].Inc()
	}
	queueDelay := make([]float64, len(offered))
	delaySamples := make([][]float64, len(offered))
	frameBits := float64(placer.DefaultFrameBits)

	// Fractional arrival accumulators.
	acc := make([]float64, len(offered))
	steps := int(math.Round(cfg.DurationSec / cfg.StepSec))

	// advance walks a packet from the switch until it egresses, drops, or
	// parks in a subgroup queue (returns the subgroup it parked at).
	advance := func(p *simPacket, now float64, credit map[*bess.Subgroup]float64) (parked bool, err error) {
		frame := p.frame
		for hop := 0; hop < maxWalkHops; hop++ {
			out, fwd, perr := tb.D.Switch.ProcessFrameInPlace(ownCopy(frame), env)
			if perr != nil {
				return false, perr
			}
			switch fwd.Kind {
			case pisa.Egress:
				res.Egressed[p.chain]++
				egrC[p.chain].Inc()
				queueDelay[p.chain] += p.queuedSec
				delaySamples[p.chain] = append(delaySamples[p.chain], p.queuedSec)
				return false, nil
			case pisa.Dropped:
				drop(p.chain)
				return false, nil
			case pisa.Continue:
				frame = out
				continue
			case pisa.ToServer:
				pl := tb.D.Pipelines[fwd.Target]
				if pl == nil {
					return false, fmt.Errorf("runtime: no pipeline %q", fwd.Target)
				}
				spi, si, terr := nsh.Tag(out)
				if terr != nil {
					return false, terr
				}
				sub := pl.SubgroupFor(spi, si)
				if sub == nil {
					return false, fmt.Errorf("runtime: no subgroup for spi=%d si=%d", spi, si)
				}
				prim := primaryOf(tb, sub)
				cost := costOf[prim]
				if cost == 0 {
					cost = sub.CyclesPerPkt
				}
				if credit[prim] < cost {
					// Out of budget this step: park the packet.
					q := queues[prim]
					if len(q) >= cfg.QueueCap {
						drop(p.chain)
						return false, nil
					}
					p.frame = out
					p.enqueuedSec = now
					queues[prim] = append(q, p)
					return true, nil
				}
				credit[prim] -= cost
				next, perr := pl.ProcessFrameInPlace(ownCopy(out), env)
				if perr != nil {
					return false, perr
				}
				if next == nil {
					drop(p.chain)
					return false, nil
				}
				frame = next
			case pisa.ToNIC:
				nic := tb.D.NICs[fwd.Target]
				if nic == nil {
					return false, fmt.Errorf("runtime: no NIC %q", fwd.Target)
				}
				next, perr := nic.ProcessFrameInPlace(ownCopy(out), env)
				if perr != nil {
					return false, perr
				}
				if next == nil {
					drop(p.chain)
					return false, nil
				}
				frame = next
			default:
				return false, fmt.Errorf("runtime: unsupported forward %v", fwd.Kind)
			}
		}
		drop(p.chain)
		return false, nil
	}

	// resume continues a parked packet from its subgroup.
	resume := func(p *simPacket, pl *bess.Pipeline, now float64, credit map[*bess.Subgroup]float64) (bool, error) {
		next, perr := pl.ProcessFrameInPlace(ownCopy(p.frame), env)
		if perr != nil {
			return false, perr
		}
		if next == nil {
			drop(p.chain)
			return false, nil
		}
		p.frame = next
		return advance(p, now, credit)
	}

	// Credits carry over between steps (bounded to two quanta) so service
	// capacity is not floored to whole packets per step.
	credit := map[*bess.Subgroup]float64{}
	for step := 0; step < steps; step++ {
		now := float64(step) * cfg.StepSec
		env.NowSec = now
		for sub, b := range budgetOf {
			c := credit[sub] + b
			if c > 2*b {
				c = 2 * b
			}
			credit[sub] = c
		}
		// Step-start credit, to derive how much of each budget this step spends.
		stepCredit := make([]float64, len(primaries))
		for pi, sub := range primaries {
			stepCredit[pi] = credit[sub]
		}
		// Drain queues first (FIFO), oldest packets retain their wait time.
		for _, pi := range drainIdx {
			sub := primaries[pi]
			q := queues[sub]
			qDepthH[pi].Observe(float64(len(q)))
			if len(q) == 0 {
				continue
			}
			pl := pipelineOf(tb, sub)
			cost := costOf[sub]
			served := 0
			for _, p := range q {
				if credit[sub] < cost {
					break
				}
				credit[sub] -= cost
				p.queuedSec += now - p.enqueuedSec // actual wait since this park
				qDelayH[pi].Observe(p.queuedSec)
				if _, err := resume(p, pl, now, credit); err != nil {
					return nil, err
				}
				served++
			}
			if served > 0 {
				// Re-read the map entry: resumed packets can have re-parked
				// into this same queue during the drain, and the stale q
				// header would silently discard them.
				queues[sub] = append([]*simPacket{}, queues[sub][served:]...)
			}
		}
		// New arrivals.
		for ci := range offered {
			acc[ci] += offered[ci] / frameBits / cfg.Scale * cfg.StepSec
			for acc[ci] >= 1 {
				acc[ci]--
				frame := gens[ci].NextInto(nil, now)
				res.Injected[ci]++
				injC[ci].Inc()
				p := &simPacket{chain: ci, frame: frame, bornSec: now}
				if _, err := advance(p, now, credit); err != nil {
					return nil, err
				}
			}
		}
		// Per-core cycle-budget utilization this step: the fraction of the
		// step's credit (budget plus bounded carry-over) actually consumed.
		// Cores of one subgroup share uniformly, so they record the same value.
		for pi, sub := range primaries {
			if stepCredit[pi] <= 0 {
				continue
			}
			util := (stepCredit[pi] - credit[sub]) / stepCredit[pi]
			for _, h := range coreUtilH[pi] {
				h.Observe(util)
			}
		}
	}

	tb.syncStateGauges()
	res.P99QueueDelaySec = make([]float64, len(offered))
	for ci := range offered {
		if res.Injected[ci] > 0 {
			res.DropRate[ci] = float64(dropped[ci]) / float64(res.Injected[ci])
		}
		res.AchievedBps[ci] = float64(res.Egressed[ci]) * frameBits * cfg.Scale / cfg.DurationSec
		if n := res.Egressed[ci]; n > 0 {
			res.AvgQueueDelaySec[ci] = queueDelay[ci] / float64(n)
			s := delaySamples[ci]
			sort.Float64s(s)
			res.P99QueueDelaySec[ci] = s[(len(s)*99)/100]
		}
	}
	res.DeadlineCompliance = finalizeDeadlines(in.Chains, delaySamples)
	return res, nil
}

// pipelineOf finds the pipeline hosting a subgroup (reference engine's
// per-drain scan; the fast engine precomputes this in its simIndex).
func pipelineOf(tb *Testbed, sub *bess.Subgroup) *bess.Pipeline {
	for _, pl := range tb.D.Pipelines {
		for _, sg := range pl.Subgroups() {
			if sg == sub {
				return pl
			}
		}
	}
	return nil
}

// primaryOf resolves an alias subgroup (merge suffix installed under a
// sibling SPI) to the primary that carries the cost/budget accounting.
func primaryOf(tb *Testbed, sub *bess.Subgroup) *bess.Subgroup {
	if len(sub.Shares) > 0 {
		return sub
	}
	psg := tb.D.SubgroupOf[sub]
	if psg == nil {
		return sub
	}
	for other, cand := range tb.D.SubgroupOf {
		if cand == psg && len(other.Shares) > 0 {
			return other
		}
	}
	return sub
}
