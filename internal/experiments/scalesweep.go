package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"lemur/internal/hw"
	"lemur/internal/metacompiler"
	"lemur/internal/nf"
	"lemur/internal/placer"
	"lemur/internal/runtime"
)

// The flow-scale sweep: the same placed chain set simulated at increasing
// concurrent-flow populations (1k → 1M), measuring how the stateful
// dataplane degrades as NF tables hit their caps — NAT port exhaustion,
// Monitor/LB FIFO eviction, Dedup cache rotation. Throughput is packets
// through the simulator per wall-clock second (the sharded-table engine's
// whole point is holding that flat as flows grow three orders of
// magnitude); drops and latency come from the SimResult; table pressure is
// harvested from the deployed NF instances after the run.

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

// ScaleCell is one point's outcome. Everything except WallNs (and the
// PktsPerSec derived from it) is deterministic for a fixed seed.
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
	// WallNs is the cell's wall-clock simulation time (excluding placement
	// and compilation). Only meaningful when cells run serially.
	WallNs int64
}

// DefaultScalePoints is the scale section's curve: 1k, 10k, 100k and 1M flows,
// with enough packets at the top point to churn every table past its cap.
func DefaultScalePoints(base int64) []ScalePoint {
	return []ScalePoint{
		{Flows: 1_000, TargetPackets: 2_000_000, Seed: base},
		{Flows: 10_000, TargetPackets: 2_000_000, Seed: base + 1},
		{Flows: 100_000, TargetPackets: 2_000_000, Seed: base + 2},
		{Flows: 1_000_000, TargetPackets: 10_000_000, Seed: base + 3},
	}
}

// flowScale is the placed chain set both flow-scale sweeps simulate: ScaleSweep
// varies the flow population over it, CoresSweep the simulator's worker count.
type flowScale struct {
	in      *placer.Input
	res     *placer.Result
	sumRate float64 // Σ placed chain rates, bits/sec
}

// placeFlowScale builds the canonical chain set's input with the stateful
// classes pinned to servers and places it with Lemur; what names the calling
// sweep in errors.
func (r *Runner) placeFlowScale(what string, chainIdxs []int, delta float64) (*flowScale, error) {
	in, _, err := r.input(chainIdxs, delta)
	if err != nil {
		return nil, err
	}
	// Pin the stateful classes to servers. PISA and SmartNIC match tables
	// top out at tens of thousands of entries — a million-flow population
	// only fits in server memory, and only the server NFs carry the sharded
	// state tables these sweeps measure.
	restrict := map[string][]hw.Platform{}
	for class, platforms := range in.Restrict {
		restrict[class] = platforms
	}
	for _, class := range []string{"NAT", "Monitor", "Dedup", "LB"} {
		restrict[class] = []hw.Platform{hw.Server}
	}
	in.Restrict = restrict
	res, err := placeFeasible(what, placer.SchemeLemur, in)
	if err != nil {
		return nil, err
	}
	fs := &flowScale{in: in, res: res}
	for _, rate := range res.ChainRates {
		fs.sumRate += rate
	}
	if fs.sumRate <= 0 {
		return nil, fmt.Errorf("experiments: %s: zero aggregate rate", what)
	}
	return fs, nil
}

// config completes cfg for a run over flows concurrent flows that injects
// about targetPackets packets (0 keeps cfg's duration).
func (fs *flowScale) config(cfg runtime.SimConfig, flows, targetPackets int) runtime.SimConfig {
	cfg.FlowScale = flows
	if cfg.Scale <= 0 {
		// Scale 1: simulate the offered rates unscaled, so multi-million
		// packet targets stay seconds of simulated time, not hours.
		cfg.Scale = 1
	}
	if cfg.StepSec <= 0 {
		cfg.StepSec = 1e-3
	}
	if targetPackets > 0 {
		// The engines inject offered/frameBits/Scale packets per simulated
		// second across the chain set; invert that for the duration.
		pktsPerSimSec := fs.sumRate / placer.DefaultFrameBits / cfg.Scale
		steps := math.Ceil(float64(targetPackets) / pktsPerSimSec / cfg.StepSec)
		cfg.DurationSec = steps * cfg.StepSec
	}
	return cfg
}

// ScaleSweep places one chain set once, then simulates every flow-count
// point on its own freshly compiled deployment (a run mutates NF table
// state). The simulated duration is derived per point so the injected
// packet count lands on TargetPackets regardless of the chain set's
// aggregate rate. Cells run concurrently, bounded by Runner.Parallel, and
// results are reduced by point index — the deterministic fields are
// byte-identical at any worker count.
func (r *Runner) ScaleSweep(chainIdxs []int, delta float64, points []ScalePoint, cfg runtime.SimConfig) ([]ScaleCell, error) {
	for pi, pt := range points {
		if pt.Flows <= 0 {
			return nil, fmt.Errorf("experiments: scalesweep point %d: non-positive flow count %d", pi, pt.Flows)
		}
	}
	fs, err := r.placeFlowScale("scalesweep", chainIdxs, delta)
	if err != nil {
		return nil, err
	}

	cells := make([]ScaleCell, len(points))
	err = forEach(len(points), r.Parallel, func(pi int) error {
		cell, err := r.scaleCell(fs, points[pi], cfg)
		if err != nil {
			return fmt.Errorf("experiments: scalesweep point %d (%d flows): %w", pi, points[pi].Flows, err)
		}
		cells[pi] = *cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// scaleCell compiles and simulates one flow-count point.
func (r *Runner) scaleCell(fs *flowScale, pt ScalePoint, cfg runtime.SimConfig) (*ScaleCell, error) {
	tb, err := r.deploy(fs.in, fs.res)
	if err != nil {
		return nil, err
	}
	pcfg := fs.config(cfg, pt.Flows, pt.TargetPackets)
	pcfg.Seed = pt.Seed

	t0 := time.Now()
	sim, err := tb.Simulate(fs.res.ChainRates, pcfg)
	wall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	cell := &ScaleCell{
		Point:       pt,
		DurationSec: pcfg.DurationSec,
		Sim:         sim,
		NFState:     HarvestNFState(tb.D),
		WallNs:      wall.Nanoseconds(),
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
