package experiments

import (
	"maps"
	"math"

	"lemur/internal/hw"
	"lemur/internal/metacompiler"
	"lemur/internal/nf"
	"lemur/internal/placer"
	"lemur/internal/runtime"
)

// The flow-scale section: the same placed chain set simulated at increasing
// concurrent-flow populations, measuring how the stateful dataplane degrades
// as NF tables hit their caps — NAT port exhaustion, Monitor/LB FIFO
// eviction, Dedup cache rotation. Drops and latency come from the
// SimResult; table pressure is harvested from the deployed NF instances
// after the run. Packet rates are bench/'s measurement (sim_stateful_hit,
// sim_stateful_churn), not this section's.

// scaleFlows are the scale section's flow populations. Chain 2's LB spreads
// flows over three NATs of 12k entries each: 500 flows fill a sliver of
// them, and 200k overrun all three, so NAT allocations exhaust and drop
// packets. At 40k packets a cell that exhaustion depends on the seed; at
// scalePackets every seed shows it.
var scaleFlows = []int{500, 200_000}

// scalePackets is about how many packets each scale cell injects.
const scalePackets = 50_000

// NFTableState is one stateful NF instance's end-of-run table pressure.
type NFTableState struct {
	Class   string `json:"class"`
	Name    string `json:"name"`
	Entries int    `json:"entries"`
	// Evicted counts FIFO evictions (Monitor, Dedup, LB); Exhausted counts
	// NAT port/entry allocation failures (dropped packets).
	Evicted   uint64 `json:"evicted,omitempty"`
	Exhausted uint64 `json:"exhausted,omitempty"`
}

// scaleCells places chains {2,3} at δ 0.5 with Lemur, the stateful classes
// pinned to servers, and builds the scale section's grid over it: one cell
// per scaleFlows population, seeded 3+i, offering the placed rates unscaled
// for the whole number of 1 ms steps that injects about scalePackets.
func (r *Runner) scaleCells() (*placer.Input, *placer.Result, []simCell, error) {
	in, _, err := r.input([]int{2, 3}, 0.5)
	if err != nil {
		return nil, nil, nil, err
	}
	// Pin the stateful classes to servers. PISA and SmartNIC match tables
	// top out at tens of thousands of entries — a large flow population
	// only fits in server memory, and only the server NFs carry the sharded
	// state tables this section measures.
	in.Restrict = maps.Clone(in.Restrict)
	for _, class := range []string{"NAT", "Monitor", "Dedup", "LB"} {
		in.Restrict[class] = []hw.Platform{hw.Server}
	}
	res, err := placeFeasible("scale", placer.SchemeLemur, in)
	if err != nil {
		return nil, nil, nil, err
	}
	// The engines inject offered/frameBits/Scale packets per simulated
	// second across the chain set; invert that for the duration.
	const stepSec = 1e-3
	pktsPerSimSec := sum(res.ChainRates) / placer.DefaultFrameBits
	dur := math.Ceil(scalePackets/pktsPerSimSec/stepSec) * stepSec
	cells := make([]simCell, len(scaleFlows))
	for i, flows := range scaleFlows {
		cells[i] = simCell{1, runtime.SimConfig{DurationSec: dur, StepSec: stepSec, Scale: 1, FlowScale: flows, Seed: 3 + int64(i)}}
	}
	return in, res, cells, nil
}

// HarvestNFState snapshots every stateful NF's table occupancy and pressure
// counters in the deployment's NF order (metacompiler.Deployment.EachNF:
// pipelines sorted by server, then SmartNIC path programs sorted by NIC).
// Instances reachable through merge aliases are reported once.
func HarvestNFState(d *metacompiler.Deployment) []NFTableState {
	var out []NFTableState
	seen := map[nf.NF]bool{}
	d.EachNF(func(fn nf.NF) {
		if seen[fn] {
			return
		}
		seen[fn] = true
		switch v := fn.(type) {
		case *nf.NAT:
			out = append(out, NFTableState{Class: "NAT", Name: v.Name(),
				Entries: v.Entries(), Exhausted: v.Exhausted})
		case *nf.Monitor:
			out = append(out, NFTableState{Class: "Monitor", Name: v.Name(),
				Entries: v.NumFlows(), Evicted: v.Evicted})
		case *nf.Dedup:
			out = append(out, NFTableState{Class: "Dedup", Name: v.Name(),
				Entries: v.CacheLen(), Evicted: v.Evicted})
		case *nf.LB:
			out = append(out, NFTableState{Class: "LB", Name: v.Name(),
				Entries: v.AffinityFlows(), Evicted: v.Evicted})
		}
	})
	return out
}
