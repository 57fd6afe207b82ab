package runtime

import (
	"sort"

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
// into buf with NSH headroom.
type frameSource interface {
	NextInto(buf []byte, nowSec float64) []byte
}

// schedSlot is the flow schedule a Testbed keeps for one chain slot: the
// arena and the (trafficgen.Config, horizon) it was generated from, which
// is everything ScheduleInto reads.
type schedSlot struct {
	cfg     trafficgen.Config
	horizon float64
	sched   *trafficgen.Schedule
}

// newChainGen builds chain ci's traffic source for cfg. FlowScale <= 0 is
// the legacy path — a plain LongLived generator, byte-identical to every
// pre-FlowScale run. FlowScale > 0 replays the chain's whole pre-generated
// flow population: FlowScale immortal flows, or, with FlowChurn, a schedule
// arriving at FlowScale/LifeSec flows per second whose steady-state live
// window holds FlowScale flows. The schedule lives in the Testbed's slot
// for the chain: a run that asks for the one already there replays it, any
// other regenerates it into the same arena.
func (tb *Testbed) newChainGen(agg nfspec.Aggregate, ci int, cfg *SimConfig) (frameSource, error) {
	tcfg := trafficgen.Config{
		Mode: trafficgen.LongLived, Seed: cfg.Seed + int64(ci),
		SrcCIDR: agg.SrcCIDR, DstCIDR: agg.DstCIDR,
		Proto: agg.Proto, DstPort: agg.DstPort,
	}
	if cfg.FlowScale <= 0 {
		return trafficgen.New(tcfg)
	}
	if cfg.FlowChurn {
		tcfg.Mode = trafficgen.ShortLived
		tcfg.NewFlowsSec = cfg.FlowScale // LifeSec defaults to 1 s
	} else {
		tcfg.Flows = cfg.FlowScale
	}
	if ci >= len(tb.scheds) {
		tb.scheds = grown(tb.scheds, ci+1-len(tb.scheds))
	}
	slot := &tb.scheds[ci]
	if slot.sched == nil || slot.cfg != tcfg || slot.horizon != cfg.DurationSec {
		sched, err := trafficgen.ScheduleInto(slot.sched, tcfg, cfg.DurationSec)
		if err != nil {
			return nil, err // slot.sched is untouched and still matches its key
		}
		*slot = schedSlot{tcfg, cfg.DurationSec, sched}
	}
	return trafficgen.NewScheduled(tcfg, slot.sched)
}

// syncStateGauges publishes every deployed stateful NF's end-of-run table
// occupancy to its lemur_nf_state_entries gauge, walking servers, their
// pipelines' subgroups, and SmartNIC path programs in sorted (deterministic)
// order. Called once per Simulate run so gauges track live NF state even
// though the tables outlive obs registry resets between runs on a warm
// testbed.
func (tb *Testbed) syncStateGauges() {
	servers := make([]string, 0, len(tb.D.Pipelines))
	for name := range tb.D.Pipelines {
		servers = append(servers, name)
	}
	sort.Strings(servers)
	for _, name := range servers {
		for _, sg := range tb.D.Pipelines[name].Subgroups() {
			for _, fn := range sg.NFs {
				nf.SyncStateObs(fn)
			}
		}
	}
	nics := make([]string, 0, len(tb.D.NICs))
	for name := range tb.D.NICs {
		nics = append(nics, name)
	}
	sort.Strings(nics)
	for _, name := range nics {
		for _, pp := range tb.D.NICs[name].PathPrograms() {
			for _, fn := range pp.NFs {
				nf.SyncStateObs(fn)
			}
		}
	}
}
