// Package runtime is the testbed: it executes a compiled Deployment — real
// frames walking the ToR switch, server pipelines and SmartNICs — and
// measures the throughput and latency a placement actually achieves, the
// way the paper's §5 experiments run generated configurations on hardware.
//
// Measurement model. Functional behaviour (steering, NF semantics, drops)
// comes from genuinely executing packets. Achieved rates come from the same
// capacity law the hardware obeys (cores × clock / cycles-per-packet), but
// with *actual* conditions instead of the Placer's conservative ones: cycle
// costs drawn from the profiled noise envelope below the worst case, and
// the real NUMA placement instead of assumed-cross-socket. Measured rates
// therefore land slightly above predictions, reproducing §5.2's
// "predictions are conservative".
package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"lemur/internal/bess"
	"lemur/internal/hw"
	"lemur/internal/metacompiler"
	"lemur/internal/nf"
	"lemur/internal/nsh"
	"lemur/internal/obs"
	"lemur/internal/pisa"
	"lemur/internal/placer"
	"lemur/internal/profile"
	"lemur/internal/trafficgen"
)

// Testbed executes one deployment. It runs one Simulate at a time: the NFs
// it drives carry their state from run to run, and so does what the Testbed
// itself keeps between runs (DESIGN.md, "What a Testbed keeps between
// runs").
type Testbed struct {
	D    *metacompiler.Deployment
	Seed int64

	// Lazily built dense dispatch index for the discrete-time simulator.
	simOnce sync.Once
	simIdx  *simIndex
	simErr  error

	// scheds holds each chain slot's FlowScale schedule (see newChainGen);
	// spares holds, per shard index, the packets and frame buffers the last
	// run's shard owned when it finished, for the next run's shard to start
	// with.
	scheds []schedSlot
	spares []simSpares

	// visit, when set, sees every switch decision a walk makes (see hop):
	// the chain, the forward and the frame the switch handed back, nil on a
	// drop. A parallel run calls it from every shard at once. Only tests set
	// it (export_test.go).
	visit func(ci int, fwd pisa.Forward, frame []byte)
}

// New builds a testbed.
func New(d *metacompiler.Deployment, seed int64) *Testbed {
	return &Testbed{D: d, Seed: seed}
}

// WalkStats summarizes a functional packet walk.
type WalkStats struct {
	Injected int
	Egressed int
	Dropped  int
	Errors   int
	MaxHops  int
}

// maxWalkHops bounds a frame's platform transitions (loop guard). A frame
// still in flight after that many is errHopBudget, in Verify and Simulate
// alike.
const maxWalkHops = 64

var errHopBudget = errors.New("runtime: frame exceeded hop budget (steering loop?)")

// Verify injects n generated frames per chain and walks each through the
// full cross-platform path, checking that chains terminate (egress or
// explicit drop) and that steering never wedges. A retired slot carries no
// traffic: it gets no frames. When frames hit steering errors, the error
// counts them and wraps the first, naming its chain and frame index, so
// errors.Is sees the cause (a steering loop's hop budget, say).
func (tb *Testbed) Verify(n int) (*WalkStats, error) {
	sp := obs.Span("runtime.verify").SetAttrInt("frames_per_chain", n)
	stats := &WalkStats{}
	defer func() {
		obs.C("lemur_verify_injected_total").Add(uint64(stats.Injected))
		obs.C("lemur_verify_egressed_total").Add(uint64(stats.Egressed))
		obs.C("lemur_verify_dropped_total").Add(uint64(stats.Dropped))
		obs.C("lemur_verify_errors_total").Add(uint64(stats.Errors))
		sp.SetAttrInt("injected", stats.Injected).
			SetAttrInt("egressed", stats.Egressed).
			SetAttrInt("dropped", stats.Dropped).
			SetAttrInt("errors", stats.Errors).
			End()
	}()
	// Verify walks on a shard of its own: one NF environment, decode scratch
	// and buffer pool serve every frame, rewritten in place hop by hop as the
	// simulator's are, and one generator is rebuilt per chain.
	sh := &simShard{env: &nf.Env{}}
	var gen *trafficgen.Generator
	var first error
	for ci, g := range tb.D.Input.Chains {
		if tb.D.Result.IsRetired(ci) {
			continue
		}
		agg := g.Chain.Aggregate
		cfg := trafficgen.Config{
			Mode: trafficgen.LongLived, Seed: tb.Seed + int64(ci),
			SrcCIDR: agg.SrcCIDR, DstCIDR: agg.DstCIDR,
			Proto: agg.Proto, DstPort: agg.DstPort,
		}
		var err error
		if gen, err = trafficgen.NewInto(gen, cfg); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			sh.env.NowSec = float64(i) * 1e-5
			frame := gen.NextInto(sh.getBuf(), sh.env.NowSec)
			stats.Injected++
			last, end, _, hops, err := tb.hop(nil, sh, ci, nil, frame)
			sh.putBuf(last)
			if hops > stats.MaxHops {
				stats.MaxHops = hops
			}
			switch {
			case err != nil:
				if stats.Errors == 0 {
					first = fmt.Errorf("chain %s frame %d: %w", g.Chain.Name, i, err)
				}
				stats.Errors++
			case end == hopEgress:
				stats.Egressed++
			default:
				stats.Dropped++
			}
		}
	}
	if stats.Errors > 0 {
		return stats, fmt.Errorf("runtime: %d frames hit steering errors; first: %w", stats.Errors, first)
	}
	return stats, nil
}

// A hop ends in one of these, or in an error.
type hopEnd uint8

const (
	hopEgress    hopEnd = iota // the switch sent the frame out of the rack
	hopDrop                    // the switch or a device's NF dropped it
	hopBlackhole               // steered at a crashed device before the rewire landed (simulator only)
	hopPark                    // out of credit at its subgroup entry this step (simulator only)
)

// hop walks a frame from the ToR switch through the devices it steers to,
// until the frame's next decision: egress, a drop, or, in the simulator, a
// blackhole or a park. Verify calls it with eng nil; the simulator passes
// its engine, which adds the steps only a run has: crashed devices,
// subgroup credits and the shard-ownership asserts. at, when not nil, is
// the pipeline a parked frame resumes on: its subgroup runs first, its
// credit already charged.
//
// Every hop runs in place on sh's buffers (simShard.adopt). hop hands back
// the frame's buffer, the one a dropping hop was given, for the caller to
// recycle or queue; idx is the entry a parked frame waits on, and hops
// counts the switch→device round trips completed. A frame still in flight
// after maxWalkHops switch passes is errHopBudget.
func (tb *Testbed) hop(eng *simEngine, sh *simShard, ci int, at *bess.Pipeline, frame []byte) (last []byte, end hopEnd, idx int32, hops int, err error) {
	if at != nil {
		next, err := at.ProcessFrameInPlace(frame, sh.env)
		if err != nil || next == nil {
			return frame, hopDrop, -1, 0, err
		}
		frame = sh.adopt(frame, next)
	}
	for ; hops < maxWalkHops; hops++ {
		out, fwd, err := tb.D.Switch.ProcessFrameInto(&sh.scratch, frame, sh.env)
		if err != nil {
			return frame, hopDrop, -1, hops, err
		}
		if tb.visit != nil {
			tb.visit(ci, fwd, out)
		}
		if fwd.Kind == pisa.Dropped {
			return frame, hopDrop, -1, hops, nil
		}
		frame = sh.adopt(frame, out)
		if eng != nil && eng.rc.dead[fwd.Target] {
			return frame, hopBlackhole, -1, hops, nil
		}
		var next []byte
		switch fwd.Kind {
		case pisa.Egress:
			return frame, hopEgress, -1, hops, nil
		case pisa.Continue:
			continue
		case pisa.ToServer:
			pl := tb.D.Pipelines[fwd.Target]
			if pl == nil {
				return frame, hopDrop, -1, hops, fmt.Errorf("runtime: no pipeline %q", fwd.Target)
			}
			if eng != nil {
				spi, si, err := nsh.Tag(frame)
				if err != nil {
					return frame, hopDrop, -1, hops, err
				}
				if idx = eng.ix.lookup(pl, spi, si); idx < 0 {
					return frame, hopDrop, -1, hops, fmt.Errorf("runtime: no subgroup for spi=%d si=%d", spi, si)
				}
				if ow := eng.part.ownerOfEntry[idx]; ow != int32(sh.id) {
					return frame, hopDrop, -1, hops, fmt.Errorf("runtime: shard %d touched subgroup entry %d owned by shard %d (partition bug)",
						sh.id, idx, ow)
				}
				c := eng.cost[idx]
				if c == 0 {
					c = eng.ix.entries[idx].sub.CyclesPerPkt
				}
				if eng.credit[idx] < c {
					return frame, hopPark, idx, hops, nil
				}
				eng.credit[idx] -= c
			}
			next, err = pl.ProcessFrameInPlace(frame, sh.env)
		case pisa.ToNIC:
			nic := tb.D.NICs[fwd.Target]
			if nic == nil {
				return frame, hopDrop, -1, hops, fmt.Errorf("runtime: no NIC %q", fwd.Target)
			}
			if eng != nil {
				if ow, ok := eng.part.nicOwner[fwd.Target]; !ok || ow != int32(sh.id) {
					return frame, hopDrop, -1, hops, fmt.Errorf("runtime: shard %d processed NIC %q owned by shard %d (partition bug)",
						sh.id, fwd.Target, ow)
				}
			}
			next, err = nic.ProcessFrameInPlace(frame, sh.env)
		default:
			return frame, hopDrop, -1, hops, fmt.Errorf("runtime: unsupported forward %v", fwd.Kind)
		}
		if err != nil || next == nil {
			return frame, hopDrop, -1, hops, err
		}
		frame = sh.adopt(frame, next)
	}
	return frame, hopDrop, -1, hops, errHopBudget
}

// Measurement is the testbed's measured counterpart of a placement's
// prediction.
type Measurement struct {
	// Rates are the achieved per-chain rates (bps) when each chain offers
	// its LP-assigned rate.
	Rates []float64
	// Aggregate is Σ Rates.
	Aggregate float64
	// WorstLatencySec is the worst per-chain path delay observed.
	WorstLatencySec []float64
}

// Measure computes achieved rates when chains offer the given loads (bps).
// Pass the placement's ChainRates to reproduce the paper's methodology.
func (tb *Testbed) Measure(offered []float64) (*Measurement, error) {
	in := tb.D.Input
	res := tb.D.Result
	if len(offered) != len(in.Chains) {
		return nil, fmt.Errorf("runtime: offered %d rates for %d chains", len(offered), len(in.Chains))
	}
	rng := rand.New(rand.NewSource(tb.Seed*31 + 7))

	// Actual per-subgroup capacities: the same law as the estimate, but
	// with realized (sub-worst-case) cycle costs and true NUMA placement.
	capOf := make([]float64, len(in.Chains))
	for i := range capOf {
		capOf[i] = in.Topo.Switch.PortCapacityBps
	}
	frameBits := float64(placer.DefaultFrameBits)
	for _, psg := range res.Subgroups {
		srv, err := in.Topo.ServerByName(psg.Server)
		if err != nil {
			return nil, err
		}
		cross := bess.CrossSocket(srv, tb.D.Shares[psg])
		actual := tb.actualCycles(psg, cross, rng)
		pps := float64(psg.Cores) * srv.ClockHz / actual
		rate := pps * frameBits / psg.Weight
		if rate < capOf[psg.ChainIdx] {
			capOf[psg.ChainIdx] = rate
		}
	}
	for _, u := range res.NICUses {
		nic, err := in.Topo.SmartNICByName(u.Device)
		if err != nil {
			return nil, err
		}
		pps := nic.SpeedupVsServerCore * in.Topo.Servers[0].ClockHz / u.Cycles
		rate := pps * frameBits / u.Weight
		if rate < capOf[u.ChainIdx] {
			capOf[u.ChainIdx] = rate
		}
	}

	m := &Measurement{Rates: make([]float64, len(offered)), WorstLatencySec: make([]float64, len(offered))}
	for i, off := range offered {
		r := off
		if capOf[i] < r {
			r = capOf[i]
		}
		if tmax := in.Chains[i].Chain.SLO.TMaxBps; r > tmax {
			r = tmax
		}
		m.Rates[i] = r
	}

	// Link enforcement: scale chains down on any oversubscribed device (the
	// LP should prevent this; enforcement keeps the measurement honest for
	// baseline schemes).
	visits := map[string][]float64{}
	caps := map[string]float64{}
	for _, psg := range res.Subgroups {
		if visits[psg.Server] == nil {
			visits[psg.Server] = make([]float64, len(offered))
			srv, _ := in.Topo.ServerByName(psg.Server)
			caps[psg.Server] = srv.NICs[0].CapacityBps
		}
		visits[psg.Server][psg.ChainIdx] += psg.Weight
	}
	for _, u := range res.NICUses {
		if visits[u.Device] == nil {
			visits[u.Device] = make([]float64, len(offered))
			nic, _ := in.Topo.SmartNICByName(u.Device)
			caps[u.Device] = nic.CapacityBps
		}
		visits[u.Device][u.ChainIdx] += u.Weight
	}
	enforceLinks(m.Rates, visits, caps)

	for i, r := range m.Rates {
		m.Aggregate += r
		m.WorstLatencySec[i] = tb.pathLatency(i)
	}
	return m, nil
}

// enforceLinks scales rates so that no device carries more than its
// capacity: visits[dev][i] is chain i's weight on dev, caps[dev] its
// capacity. Each device's factor, capacity over load, comes from the rates
// as given, and each chain is scaled by the smallest factor among the
// oversubscribed devices it visits. A device's load then falls at least by
// its own factor, so every device fits, whatever order the map yields.
func enforceLinks(rates []float64, visits map[string][]float64, caps map[string]float64) {
	factor := make([]float64, len(rates))
	for i := range factor {
		factor[i] = 1
	}
	for dev, vs := range visits {
		load := 0.0
		for i, v := range vs {
			load += v * rates[i]
		}
		if load <= caps[dev] {
			continue
		}
		f := caps[dev] / load
		for i, v := range vs {
			if v > 0 && f < factor[i] {
				factor[i] = f
			}
		}
	}
	for i := range rates {
		rates[i] *= factor[i]
	}
}

// actualCycles realizes a subgroup's true per-packet cost: each NF's worst
// case scaled into the profiled noise envelope, with the NUMA penalty only
// when the subgroup really runs cross-socket (the estimate assumes it
// always does, which is why measurements land at or above predictions).
func (tb *Testbed) actualCycles(psg *placer.Subgroup, crossSocket bool, rng *rand.Rand) float64 {
	in := tb.D.Input
	total := in.Topo.EncapCycles + in.Topo.DemuxCycles
	for _, n := range psg.Nodes {
		worst := in.DB.WorstCycles(n.Class(), n.Inst.Params)
		floor := profile.NoiseFloor(n.Class())
		total += worst * (floor + rng.Float64()*(1-floor))
	}
	if crossSocket {
		total *= in.Topo.CrossSocketPenalty
	}
	return total
}

// pathLatency evaluates the worst path delay of chain i under actual
// placement.
func (tb *Testbed) pathLatency(i int) float64 {
	in := tb.D.Input
	worst := 0.0
	g := in.Chains[i]
	for _, path := range g.Paths() {
		d := placer.SwitchPipelineSec
		prev := placer.Assign{Platform: hw.PISA}
		hops := 0
		for _, n := range path {
			a := tb.D.Result.Assign[n]
			if a.HopFrom(prev) {
				hops++
				prev = a
			}
			switch a.Platform {
			case hw.Server:
				d += in.DB.WorstCycles(n.Class(), n.Inst.Params) / in.Topo.Servers[0].ClockHz
			case hw.SmartNIC:
				if nic, err := in.Topo.SmartNICByName(a.Device); err == nil {
					d += in.DB.WorstCycles(n.Class(), n.Inst.Params) / (nic.SpeedupVsServerCore * in.Topo.Servers[0].ClockHz)
				}
			}
		}
		if prev.Platform != hw.PISA {
			hops++
		}
		d += float64(hops) * in.Topo.HopLatencySec
		if d > worst {
			worst = d
		}
	}
	return worst
}
