package experiments

import (
	"fmt"
	"math"
	"sort"

	"lemur/internal/hw"
	"lemur/internal/metacompiler"
	"lemur/internal/nf"
	"lemur/internal/placer"
	"lemur/internal/runtime"
)

// The flow-scale sweep: the same placed chain set simulated at increasing
// concurrent-flow populations, measuring how the stateful dataplane degrades
// as NF tables hit their caps — NAT port exhaustion, Monitor/LB FIFO
// eviction, Dedup cache rotation. Drops and latency come from the
// SimResult; table pressure is harvested from the deployed NF instances
// after the run. Packet rates are bench/'s measurement (sim_stateful_hit,
// sim_stateful_churn), not this sweep's.

// ScalePoint is one flow-count cell: the chain set simulated with a
// pre-generated population of Flows concurrent flows, sized to inject
// about TargetPackets packets.
type ScalePoint struct {
	Flows         int
	TargetPackets int
	Seed          int64
}

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

// ScaleCell is one point's outcome, deterministic for a fixed seed.
type ScaleCell struct {
	Point       ScalePoint
	DurationSec float64
	Packets     int
	Egressed    int
	DropRate    float64
	// AvgDelaySec / P99DelaySec are the worst per-chain queue delays.
	AvgDelaySec float64
	P99DelaySec float64
	Sim         *runtime.SimResult
	NFState     []NFTableState
}

// DefaultScalePoints is the scale section's curve at 50k packets a point.
// Chain 2's LB spreads flows over three NATs of 12k entries each: 500 flows
// fill a sliver of them, and 200k overrun all three, so NAT allocations
// exhaust and drop packets. At 40k packets that exhaustion depends on the
// seed; at 50k every seed shows it.
func DefaultScalePoints(base int64) []ScalePoint {
	return []ScalePoint{
		{Flows: 500, TargetPackets: 50_000, Seed: base},
		{Flows: 200_000, TargetPackets: 50_000, Seed: base + 1},
	}
}

// ScaleSweep places one chain set once with Lemur, the stateful classes
// pinned to servers, then simulates every flow-count point on its own
// freshly compiled deployment (a run mutates NF table state). The simulated
// duration is derived per point so the injected packet count lands on
// TargetPackets regardless of the chain set's aggregate rate; cfg's Scale
// and StepSec default to 1 and 1 ms. Cells run concurrently, bounded by
// Runner.Parallel, and results are reduced by point index — the cells are
// byte-identical at any worker count.
func (r *Runner) ScaleSweep(chainIdxs []int, delta float64, points []ScalePoint, cfg runtime.SimConfig) ([]ScaleCell, error) {
	for pi, pt := range points {
		if pt.Flows <= 0 {
			return nil, fmt.Errorf("experiments: scalesweep point %d: non-positive flow count %d", pi, pt.Flows)
		}
	}
	in, _, err := r.input(chainIdxs, delta)
	if err != nil {
		return nil, err
	}
	// Pin the stateful classes to servers. PISA and SmartNIC match tables
	// top out at tens of thousands of entries — a large flow population
	// only fits in server memory, and only the server NFs carry the sharded
	// state tables this sweep measures.
	restrict := map[string][]hw.Platform{}
	for class, platforms := range in.Restrict {
		restrict[class] = platforms
	}
	for _, class := range []string{"NAT", "Monitor", "Dedup", "LB"} {
		restrict[class] = []hw.Platform{hw.Server}
	}
	in.Restrict = restrict
	res, err := placeFeasible("scalesweep", placer.SchemeLemur, in)
	if err != nil {
		return nil, err
	}
	sumRate := 0.0
	for _, rate := range res.ChainRates {
		sumRate += rate
	}
	if sumRate <= 0 {
		return nil, fmt.Errorf("experiments: scalesweep: zero aggregate rate")
	}
	if cfg.Scale <= 0 {
		// Scale 1: simulate the offered rates unscaled.
		cfg.Scale = 1
	}
	if cfg.StepSec <= 0 {
		cfg.StepSec = 1e-3
	}
	// The engines inject offered/frameBits/Scale packets per simulated
	// second across the chain set; invert that for each point's duration.
	pktsPerSimSec := sumRate / placer.DefaultFrameBits / cfg.Scale

	cells := make([]ScaleCell, len(points))
	err = forEach(len(points), r.Parallel, func(pi int) error {
		pt, pcfg := points[pi], cfg
		pcfg.FlowScale, pcfg.Seed = pt.Flows, pt.Seed
		if pt.TargetPackets > 0 {
			pcfg.DurationSec = math.Ceil(float64(pt.TargetPackets)/pktsPerSimSec/pcfg.StepSec) * pcfg.StepSec
		}
		cell, err := r.scaleCell(in, res, pt, pcfg)
		if err != nil {
			return fmt.Errorf("experiments: scalesweep point %d (%d flows): %w", pi, pt.Flows, err)
		}
		cells[pi] = *cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// scaleCell compiles and simulates one flow-count point under cfg.
func (r *Runner) scaleCell(in *placer.Input, res *placer.Result, pt ScalePoint, cfg runtime.SimConfig) (*ScaleCell, error) {
	tb, err := r.deploy(in, res)
	if err != nil {
		return nil, err
	}
	sim, err := tb.Simulate(res.ChainRates, cfg)
	if err != nil {
		return nil, err
	}
	cell := &ScaleCell{
		Point:       pt,
		DurationSec: cfg.DurationSec,
		Sim:         sim,
		NFState:     HarvestNFState(tb.D),
	}
	for ci := range sim.Injected {
		cell.Packets += sim.Injected[ci]
		cell.Egressed += sim.Egressed[ci]
		if sim.AvgQueueDelaySec[ci] > cell.AvgDelaySec {
			cell.AvgDelaySec = sim.AvgQueueDelaySec[ci]
		}
		if sim.P99QueueDelaySec[ci] > cell.P99DelaySec {
			cell.P99DelaySec = sim.P99QueueDelaySec[ci]
		}
	}
	if cell.Packets > 0 {
		cell.DropRate = float64(cell.Packets-cell.Egressed) / float64(cell.Packets)
	}
	return cell, nil
}

// HarvestNFState walks a deployment's pipelines (sorted by server) and
// SmartNIC path programs (sorted by NIC) and snapshots every stateful NF's
// table occupancy and pressure counters. Instances reachable through merge
// aliases are reported once.
func HarvestNFState(d *metacompiler.Deployment) []NFTableState {
	var out []NFTableState
	seen := map[nf.NF]bool{}
	harvest := func(fn nf.NF) {
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
	}
	servers := make([]string, 0, len(d.Pipelines))
	for name := range d.Pipelines {
		servers = append(servers, name)
	}
	sort.Strings(servers)
	for _, name := range servers {
		for _, sg := range d.Pipelines[name].Subgroups() {
			for _, fn := range sg.NFs {
				harvest(fn)
			}
		}
	}
	nics := make([]string, 0, len(d.NICs))
	for name := range d.NICs {
		nics = append(nics, name)
	}
	sort.Strings(nics)
	for _, name := range nics {
		for _, pp := range d.NICs[name].PathPrograms() {
			for _, fn := range pp.NFs {
				harvest(fn)
			}
		}
	}
	return out
}
