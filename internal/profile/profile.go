// Package profile implements Lemur's NF profiling (§3.2): measuring
// per-packet CPU cycle costs of NFs on the (simulated) software dataplane,
// aggregating them into the worst-case cost database the Placer consumes,
// and fitting the linear size-dependent models the paper uses for table-
// driven NFs such as ACL.
//
// Measurement model. The simulated server has no hardware TSC, so a run's
// observed cost is produced by executing the real NF over generated traffic
// and charging the registry's worst-case cost modulated by a per-run
// microarchitectural noise term and the NUMA placement factor. The noise
// envelopes are calibrated to the paper's Table 4 (max within ~2-6% of mean,
// diff-NUMA 2-7% dearer), so profiled statistics reproduce the table's
// shape while remaining genuine executions of the NF code.
package profile

import (
	"fmt"
	"math/rand"

	"lemur/internal/nf"
	"lemur/internal/packet"
	"lemur/internal/trafficgen"
)

// NUMA describes whether the NF ran on the NIC's socket or the remote one.
type NUMA int

// NUMA placements, as in Table 4's "Same"/"Diff" column.
const (
	SameNUMA NUMA = iota
	DiffNUMA
)

func (n NUMA) String() string {
	if n == SameNUMA {
		return "Same"
	}
	return "Diff"
}

// Stats summarizes profiled cycle costs across runs.
type Stats struct {
	Mean, Min, Max float64
	Runs           int
}

// classCalib holds the per-class noise envelope and NUMA factor, calibrated
// from Table 4 where the paper reports numbers and defaulted elsewhere.
type classCalib struct {
	minFactor  float64 // cheapest run relative to worst-case
	numaFactor float64 // diff-NUMA multiplier
}

var calib = map[string]classCalib{
	"Encrypt": {minFactor: 0.9576, numaFactor: 1.0394},
	"Dedup":   {minFactor: 0.9460, numaFactor: 1.0751},
	"ACL":     {minFactor: 0.9484, numaFactor: 1.0207},
	"NAT":     {minFactor: 0.9623, numaFactor: 1.0629},
}

var defaultCalib = classCalib{minFactor: 0.955, numaFactor: 1.045}

// NoiseFloor returns the cheapest realizable cost for an NF class relative
// to its worst case (Table 4's min/max ratio). The runtime draws actual
// per-run costs from [NoiseFloor, 1] × worst.
func NoiseFloor(class string) float64 {
	if c, ok := calib[class]; ok {
		return c.minFactor
	}
	return defaultCalib.minFactor
}

// Profiler measures NF cycle costs.
type Profiler struct {
	Runs          int // profiling runs per NF (paper: 500)
	PacketsPerRun int // packets executed per run
	Seed          int64
}

// NewProfiler returns a profiler with the paper's defaults.
func NewProfiler() *Profiler {
	return &Profiler{Runs: 500, PacketsPerRun: 128, Seed: 1}
}

// trafficFor picks the worst-case-exercising mix per footnote 6: NFs with
// per-flow state setup pain get flow churn; the rest get long-lived flows.
func trafficFor(class string, seed int64) (*trafficgen.Generator, error) {
	cfg := trafficgen.Config{Mode: trafficgen.LongLived, Seed: seed}
	switch class {
	case "NAT", "Monitor", "LB":
		cfg.Mode = trafficgen.ShortLived
		cfg.NewFlowsSec = 1000
	case "UrlFilter":
		cfg.HTTPShare = 0.5
		cfg.Proto = 6
	case "Dedup":
		cfg.Redundancy = 0 // random payloads are Dedup's worst case
	}
	return trafficgen.New(cfg)
}

// Profile measures one NF class with the given constructor params at the
// given NUMA placement, returning per-run cycle-cost statistics. It needs at
// least one run: statistics over none are undefined.
func (pr *Profiler) Profile(class string, params nf.Params, numa NUMA) (Stats, error) {
	if pr.Runs < 1 {
		return Stats{}, fmt.Errorf("profile: need at least one run, got %d", pr.Runs)
	}
	meta, ok := nf.Registry[class]
	if !ok {
		return Stats{}, fmt.Errorf("profile: unknown NF class %q", class)
	}
	worst := meta.Cycles(params)
	c, ok := calib[class]
	if !ok {
		c = defaultCalib
	}
	rng := rand.New(rand.NewSource(pr.Seed*7919 + int64(len(class))))
	st := Stats{Min: worst * 10, Runs: pr.Runs}
	var sum float64

	for run := 0; run < pr.Runs; run++ {
		inst, err := meta.New(fmt.Sprintf("prof-%s-%d", class, run), params)
		if err != nil {
			return Stats{}, fmt.Errorf("profile: %s: %w", class, err)
		}
		gen, err := trafficFor(class, pr.Seed+int64(run))
		if err != nil {
			return Stats{}, err
		}
		env := &nf.Env{Rand: rng}
		for i := 0; i < pr.PacketsPerRun; i++ {
			env.NowSec = float64(i) * 1e-5
			var p packet.Packet
			if err := p.Decode(gen.NextInto(nil, env.NowSec)); err != nil {
				return Stats{}, fmt.Errorf("profile: %s: %w", class, err)
			}
			inst.Process(&p, env)
		}
		// Run-level observed mean: worst-case modulated by uniform
		// microarchitectural noise and NUMA placement.
		cost := worst * (c.minFactor + rng.Float64()*(1-c.minFactor))
		if numa == DiffNUMA {
			cost *= c.numaFactor
		}
		sum += cost
		if cost < st.Min {
			st.Min = cost
		}
		if cost > st.Max {
			st.Max = cost
		}
	}
	st.Mean = sum / float64(pr.Runs)
	return st, nil
}

// LinearModel is a fitted cycles = Intercept + Slope*size model.
type LinearModel struct {
	Intercept, Slope float64
}

// Predict evaluates the model.
func (m LinearModel) Predict(size float64) float64 { return m.Intercept + m.Slope*size }

// FitLinear profiles class at each size (passed via paramKey) and fits a
// least-squares line through the measured worst-case costs — the paper's
// approach for size-dependent NFs like ACL.
func (pr *Profiler) FitLinear(class, paramKey string, sizes []int, numa NUMA) (LinearModel, error) {
	if len(sizes) < 2 {
		return LinearModel{}, fmt.Errorf("profile: need >=2 sizes, got %d", len(sizes))
	}
	var sx, sy, sxx, sxy float64
	for _, size := range sizes {
		st, err := pr.Profile(class, nf.Params{paramKey: size}, numa)
		if err != nil {
			return LinearModel{}, err
		}
		x, y := float64(size), st.Max
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	n := float64(len(sizes))
	den := n*sxx - sx*sx
	if den == 0 {
		return LinearModel{}, fmt.Errorf("profile: degenerate size set %v", sizes)
	}
	slope := (n*sxy - sx*sy) / den
	return LinearModel{Slope: slope, Intercept: (sy - slope*sx) / n}, nil
}
