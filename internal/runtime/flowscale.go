package runtime

import (
	"lemur/internal/nf"
	"lemur/internal/nfspec"
	"lemur/internal/trafficgen"
)

// Flow-scale support: SimConfig.FlowScale swaps each chain's default
// 40-flow incremental generator for an arena-backed pre-generated schedule
// (trafficgen.ScheduleInto) so the stateful NFs can be driven with up to
// millions of concurrent flows. Both engines build their packet sources
// through Testbed.newChainGen, so the fast/reference and sharded/reference
// identity properties hold at any scale.

// frameSource is the per-chain packet source the sim engine draws from —
// satisfied by both trafficgen.Generator (incremental) and
// trafficgen.ScheduleGen (arena replay). NextInto produces the next frame
// into buf with NSH headroom; HeadersInto the same frame without writing
// its payload bytes, for a chain no NF of which reads them.
type frameSource interface {
	NextInto(buf []byte, nowSec float64) []byte
	HeadersInto(buf []byte, nowSec float64) []byte
}

// schedSlot is what a Testbed keeps for one chain slot's traffic: the flow
// schedule, with the (trafficgen.Config, horizon) it was generated from,
// which is everything ScheduleInto reads, and the packet source the last
// run drew from, rebuilt in place by the next.
type schedSlot struct {
	cfg     trafficgen.Config
	horizon float64
	sched   *trafficgen.Schedule
	replay  *trafficgen.ScheduleGen // FlowScale > 0
	gen     *trafficgen.Generator   // FlowScale <= 0
}

// newChainGen builds chain ci's traffic source for cfg. FlowScale <= 0 is
// the legacy path — a plain LongLived generator, byte-identical to every
// pre-FlowScale run. FlowScale > 0 replays the chain's whole pre-generated
// flow population: FlowScale immortal flows, or, with FlowChurn, a schedule
// arriving at FlowScale/LifeSec flows per second whose steady-state live
// window holds FlowScale flows. The schedule lives in the Testbed's slot
// for the chain: a run that asks for the one already there replays it, any
// other regenerates it into the same arena. Either source is rebuilt into
// the slot's, so the source a run returns is valid until the next run.
func (tb *Testbed) newChainGen(agg nfspec.Aggregate, ci int, cfg *SimConfig) (frameSource, error) {
	tcfg := trafficgen.Config{
		Mode: trafficgen.LongLived, Seed: cfg.Seed + int64(ci),
		SrcCIDR: agg.SrcCIDR, DstCIDR: agg.DstCIDR,
		Proto: agg.Proto, DstPort: agg.DstPort,
	}
	if ci >= len(tb.scheds) {
		tb.scheds = grown(tb.scheds, ci+1-len(tb.scheds))
	}
	slot := &tb.scheds[ci]
	if cfg.FlowScale <= 0 {
		gen, err := trafficgen.NewInto(slot.gen, tcfg)
		if err != nil {
			return nil, err
		}
		slot.gen = gen
		return gen, nil
	}
	if cfg.FlowChurn {
		tcfg.Mode = trafficgen.ShortLived
		tcfg.NewFlowsSec = cfg.FlowScale // LifeSec defaults to 1 s
	} else {
		tcfg.Flows = cfg.FlowScale
	}
	if slot.sched == nil || slot.cfg != tcfg || slot.horizon != cfg.DurationSec {
		sched, err := trafficgen.ScheduleInto(slot.sched, tcfg, cfg.DurationSec)
		if err != nil {
			return nil, err // slot.sched is untouched and still matches its key
		}
		slot.cfg, slot.horizon, slot.sched = tcfg, cfg.DurationSec, sched
	}
	replay, err := trafficgen.NewScheduledInto(slot.replay, tcfg, slot.sched)
	if err != nil {
		return nil, err
	}
	slot.replay = replay
	return replay, nil
}

// syncStateGauges publishes every deployed stateful NF's end-of-run table
// occupancy to its lemur_nf_state_entries gauge, in the deployment's fixed
// NF order (metacompiler.Deployment.EachNF). Called once per Simulate run so
// gauges track live NF state even though the tables outlive obs registry
// resets between runs on a warm testbed.
func (tb *Testbed) syncStateGauges() {
	tb.D.EachNF(nf.SyncStateObs)
}
