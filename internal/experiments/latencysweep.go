package experiments

import (
	"fmt"
	"math"
	"strings"

	"lemur/internal/hw"
	"lemur/internal/placer"
	"lemur/internal/profile"
	"lemur/internal/runtime"
)

// The deadline-compliance sweep (§5.3 extended): a deadline-bearing chain
// simulated across offered-load factors, once with the EDF drain order the
// deadline slacks induce and once with the forced round-robin baseline,
// for each placement scheme. Per-core service capacity is identical in the
// two arms — only the order queues are drained in differs — so any
// compliance gap at equal throughput is pure scheduling.
//
// The sweep does not use the five canonical chains: their heavy NFs (Dedup
// at ~31k worst-case cycles, Encrypt at ~8.8k) cost more than the two
// scheduling quanta of credit a subgroup can bank per step at testbed core
// counts, so their queues never drain and every load point degenerates to
// zero egress. Instead it builds LatencyChainSpec below, shaped so the
// round-robin order is genuinely different from the EDF order (see the
// comment there) and the bottleneck subgroups stay within their credit.

// Latency sweep chain geometry: LatencyHops server hops, each split into
// its own subgroup by a PISA-pinned IPv4Fwd between consecutive hops. The
// two ACL hops at positions LatencyHeavyLo/Hi are the near-capacity pair;
// the Limiter hops elsewhere are overprovisioned pass-throughs.
const (
	LatencyHops    = 9
	LatencyHeavyLo = 4
	LatencyHeavyHi = 5
)

// LatencyRestrict pins the sweep chain's NF types: ACL and Limiter must
// stay on the server (they are the queues being scheduled), IPv4Fwd on the
// switch (it is the subgroup separator).
var LatencyRestrict = map[string][]hw.Platform{
	"ACL":     {hw.Server},
	"Limiter": {hw.Server},
	"IPv4Fwd": {hw.PISA},
}

// LatencyChainSpec emits the deadline-bearing sweep chain: a linear run of
// LatencyHops server NFs, every consecutive pair separated by a PISA-pinned
// IPv4Fwd so each server NF lands in its own scheduler subgroup.
//
// The shape is chosen so the legacy round-robin drain order differs from
// the EDF order. Round-robin sweeps subgroups in install-name order
// ("spiN.siM", lexicographic), and NSH service indices decrement toward
// the chain tail — so for short chains name order is already tail-first
// and coincides with ascending-slack EDF. With nine server hops the
// indices reach double digits and the lexicographic sort inverts:
// "si11" < "si9", putting the ACL hop at position 4 ahead of the sweep and
// the equally-provisioned ACL hop at position 5 at the very end. Under
// round-robin, packets drained from hop 4 consume hop 5's credit before
// hop 5's own backlog is served — the queue-jump EDF eliminates by
// draining least-slack (most-downstream) subgroups first.
func LatencyChainSpec(tminBps, dmaxSec float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, `
chain lat1 {
  slo { tmin = %.0f  tmax = 100000000000  dmax = %.9f }
  aggregate { src = 10.50.0.0/16  dst = 172.16.0.0/12 }
`, tminBps, dmaxSec)
	var names []string
	for h := 1; h <= LatencyHops; h++ {
		var n string
		if h == LatencyHeavyLo || h == LatencyHeavyHi {
			n = fmt.Sprintf("a%d", h)
			fmt.Fprintf(&b, "  %s = ACL(allow_dst = \"172.16.0.0/12\", rules = 1024)\n", n)
		} else {
			n = fmt.Sprintf("l%d", h)
			fmt.Fprintf(&b, "  %s = Limiter()\n", n)
		}
		names = append(names, n)
		if h < LatencyHops {
			f := fmt.Sprintf("f%d", h)
			fmt.Fprintf(&b, "  %s = IPv4Fwd()\n", f)
			names = append(names, f)
		}
	}
	for j := 0; j+1 < len(names); j++ {
		fmt.Fprintf(&b, "  %s -> %s\n", names[j], names[j+1])
	}
	b.WriteString("}\n")
	return b.String()
}

// LatencySpec parameterizes the sweep's chain: its guaranteed rate and its
// scheduling deadline.
type LatencySpec struct {
	TMinBps float64
	DMaxSec float64
}

// DefaultLatencySpec is lemur-bench -latency's sweep configuration. The t_min
// leaves NIC headroom for the nine server↔switch bounces; SW-Preferred's
// whole-chain server placement caps out near 2 Gbps for this chain, so its
// curve records an explicit infeasibility instead — the paper's
// pure-software throughput penalty, stated as a reason. The 200 ms
// deadline sits between the FIFO sojourn EDF sustains through overload and
// the starvation tail round-robin's queue-jumping produces, so compliance
// separates the policies where the load curve saturates.
var DefaultLatencySpec = LatencySpec{TMinBps: 4e9, DMaxSec: 0.2}

// LatencyPoint is one offered-load cell of the sweep.
type LatencyPoint struct {
	LoadFactor float64
	Seed       int64
}

// LatencyRun is one (point, policy) simulation outcome; slices are indexed
// by chain.
type LatencyRun struct {
	AchievedBps        []float64
	P99QueueDelaySec   []float64
	DeadlineCompliance []float64
}

// LatencyCell pairs the EDF and round-robin arms of one load point.
type LatencyCell struct {
	Point LatencyPoint
	EDF   *LatencyRun
	RR    *LatencyRun
}

// LatencyCurve is one scheme's compliance-vs-load curve.
type LatencyCurve struct {
	Scheme   placer.Scheme
	Feasible bool
	Reason   string
	// PredictedP99Sec is the placer's per-chain M/M/1 tail estimate at the
	// solved rates; -1 where the estimate diverges (utilization at 1, as
	// the LP drives the bottleneck subgroup when t_max is not binding).
	PredictedP99Sec []float64
	Cells           []LatencyCell
}

// DefaultLatencyPoints spans underload through the saturation knee, where
// queue backlogs make the drain order visible in the tail: the bottleneck
// ACL pair saturates near 4.3x the solved rate on the paper testbed.
func DefaultLatencyPoints(base int64) []LatencyPoint {
	factors := []float64{1.0, 2.0, 3.0, 4.0, 4.3, 4.6, 5.0}
	pts := make([]LatencyPoint, len(factors))
	for i, f := range factors {
		pts[i] = LatencyPoint{LoadFactor: f, Seed: base + int64(i)}
	}
	return pts
}

// latencyInput builds the placer input for the sweep chain.
func (r *Runner) latencyInput(spec LatencySpec) (*placer.Input, error) {
	gs, err := BuildChainsFromSpec(LatencyChainSpec(spec.TMinBps, spec.DMaxSec))
	if err != nil {
		return nil, fmt.Errorf("experiments: latency chain: %w", err)
	}
	return &placer.Input{
		Topo:             r.Topo,
		DB:               profile.DefaultDB(),
		Chains:           gs,
		Restrict:         LatencyRestrict,
		BruteForceBudget: r.BruteForceBudget,
		Parallel:         r.Parallel,
	}, nil
}

// LatencySweep places the deadline-bearing sweep chain with every scheme,
// then simulates each load point twice — SchedEDF and SchedRR — on its own
// freshly compiled deployment (a run mutates NF and queue state). Cells run
// concurrently, bounded by Runner.Parallel, and results are reduced by
// (scheme, point, policy) index, so the output is byte-identical at any
// worker count and any SimConfig.Workers value.
func (r *Runner) LatencySweep(spec LatencySpec, points []LatencyPoint,
	schemes []placer.Scheme, cfg runtime.SimConfig) ([]LatencyCurve, error) {
	type job struct {
		si, pi int
		policy string
		in     *placer.Input
		res    *placer.Result
	}
	curves := make([]LatencyCurve, len(schemes))
	var jobs []job
	for si, scheme := range schemes {
		in, err := r.latencyInput(spec)
		if err != nil {
			return nil, err
		}
		res, err := placer.Place(scheme, in)
		if err != nil {
			return nil, err
		}
		curves[si] = LatencyCurve{Scheme: scheme, Feasible: res.Feasible, Reason: res.Reason}
		if !res.Feasible {
			continue
		}
		curves[si].PredictedP99Sec = finiteOrNeg(res.PredictedP99Sec)
		curves[si].Cells = make([]LatencyCell, len(points))
		for pi, pt := range points {
			curves[si].Cells[pi].Point = pt
			for _, pol := range []string{runtime.SchedEDF, runtime.SchedRR} {
				jobs = append(jobs, job{si: si, pi: pi, policy: pol, in: in, res: res})
			}
		}
	}

	err := forEach(len(jobs), r.Parallel, func(i int) error {
		jb := jobs[i]
		pcfg := cfg
		pcfg.Seed = points[jb.pi].Seed
		pcfg.SchedPolicy = jb.policy
		sim, err := r.simulate(jb.in, jb.res, points[jb.pi].LoadFactor, pcfg)
		if err != nil {
			return fmt.Errorf("experiments: latency sweep %s point %d %s: %w",
				curves[jb.si].Scheme, jb.pi, jb.policy, err)
		}
		run := &LatencyRun{
			AchievedBps:        sim.AchievedBps,
			P99QueueDelaySec:   sim.P99QueueDelaySec,
			DeadlineCompliance: sim.DeadlineCompliance,
		}
		// The two arms of a load point are two cells with a slot each.
		if jb.policy == runtime.SchedEDF {
			curves[jb.si].Cells[jb.pi].EDF = run
		} else {
			curves[jb.si].Cells[jb.pi].RR = run
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return curves, nil
}

// finiteOrNeg copies vs with non-finite entries (the diverged M/M/1
// estimate) replaced by -1, so a curve holds finite numbers only.
func finiteOrNeg(vs []float64) []float64 {
	if vs == nil {
		return nil
	}
	out := make([]float64, len(vs))
	for i, v := range vs {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			out[i] = -1
		} else {
			out[i] = v
		}
	}
	return out
}
