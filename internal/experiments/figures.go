package experiments

import (
	"fmt"

	"lemur/internal/hw"
	"lemur/internal/metacompiler"
	"lemur/internal/nf"
	"lemur/internal/placer"
	"lemur/internal/profile"
)

// Figure2f runs the component ablations on the four-chain set: full Lemur
// vs No-Profiling vs No-Core-Allocation.
func (r *Runner) Figure2f(deltas []float64) ([]DeltaRow, error) {
	schemes := []placer.Scheme{placer.SchemeLemur, placer.SchemeNoProfiling, placer.SchemeNoCoreAlloc}
	return r.Figure2Panel([]int{1, 2, 3, 4}, deltas, schemes)
}

// Figure3aResult compares chains {1,2,3} on one vs two 8-core servers.
type Figure3aResult struct {
	Delta              float64
	SingleFeasible     bool
	SingleReason       string
	SingleAggregate    float64
	TwoServerFeasible  bool
	TwoServerAggregate float64
}

// Figure3a reproduces the multi-server experiment (§5.3): at δ=0.5 a single
// 8-core server yields less than half the two-server aggregate; at δ=1.5
// the single-server case is infeasible (the Dedup→ACL→Limiter subgroup can
// no longer share one core, and splitting it exhausts the cores). The two
// racks are fixed by the experiment; everything else is the receiver's.
func (r *Runner) Figure3a(deltas []float64) ([]Figure3aResult, error) {
	single := r.on(hw.NewPaperTestbed(hw.WithSingleSocket()))
	double := r.on(hw.NewPaperTestbed(hw.WithServers(2), hw.WithSingleSocket()))
	var out []Figure3aResult
	for _, d := range deltas {
		sr, _, err := single.RunSet([]int{1, 2, 3}, d, placer.SchemeLemur)
		if err != nil {
			return nil, err
		}
		dr, _, err := double.RunSet([]int{1, 2, 3}, d, placer.SchemeLemur)
		if err != nil {
			return nil, err
		}
		out = append(out, Figure3aResult{
			Delta:              d,
			SingleFeasible:     sr.Feasible,
			SingleReason:       sr.Reason,
			SingleAggregate:    sr.MeasuredAggregate,
			TwoServerFeasible:  dr.Feasible,
			TwoServerAggregate: dr.MeasuredAggregate,
		})
	}
	return out, nil
}

// Figure3bResult compares chain 5 with and without the SmartNIC.
type Figure3bResult struct {
	Delta              float64
	ServerOnlyFeasible bool
	ServerOnlyAgg      float64
	WithNICFeasible    bool
	WithNICAgg         float64
	NICUsed            bool
}

// Figure3b reproduces the SmartNIC experiment (§5.3): offloading ChaCha to
// the eBPF NIC lifts chain 5 toward the 40G line rate, and at δ=1.5 no
// server-only solution exists because t_min exceeds what one (non-
// replicable) ChaCha core can do. As in Figure3a, only the two racks are
// fixed.
func (r *Runner) Figure3b(deltas []float64) ([]Figure3bResult, error) {
	serverOnly := r.on(hw.NewPaperTestbed())
	withNIC := r.on(hw.NewPaperTestbed(hw.WithSmartNIC()))
	var out []Figure3bResult
	for _, d := range deltas {
		sr, _, err := serverOnly.RunSet([]int{5}, d, placer.SchemeLemur)
		if err != nil {
			return nil, err
		}
		in, _, err := withNIC.input([]int{5}, d)
		if err != nil {
			return nil, err
		}
		nr, res, err := withNIC.runInput(in, placer.SchemeLemur)
		if err != nil {
			return nil, err
		}
		out = append(out, Figure3bResult{
			Delta:              d,
			ServerOnlyFeasible: sr.Feasible,
			ServerOnlyAgg:      sr.MeasuredAggregate,
			WithNICFeasible:    nr.Feasible,
			WithNICAgg:         nr.MeasuredAggregate,
			NICUsed:            nr.Feasible && len(res.NICUses) > 0,
		})
	}
	return out, nil
}

// Figure3cResult compares ACL placement on an OpenFlow switch vs stitched
// through a commodity server (§5.3).
type Figure3cResult struct {
	OFRateBps     float64
	ServerRateBps float64
	Speedup       float64
}

// Figure3c models the OpenFlow experiment: a large ACL either runs on the
// OpenFlow switch (line-rate, bounded by its 10G port and the VLAN-vid
// steering overhead) or on one server core. The paper reports 7710 vs 693
// Mbps; the shape to reproduce is the ~10x gap.
func Figure3c() Figure3cResult {
	topo := hw.NewPaperTestbed(hw.WithOpenFlowSwitch())
	db := profile.DefaultDB()
	const rules = 8192
	cycles := db.WorstCycles("ACL", nf.Params{"rules": rules}) * topo.CrossSocketPenalty

	// Server path: one core runs the ACL; add coordination overheads.
	serverPPS := topo.Servers[0].ClockHz / (cycles + topo.EncapCycles + topo.DemuxCycles)
	serverRate := serverPPS * placer.DefaultFrameBits

	// OpenFlow path: the switch matches in hardware at port rate; the VLAN
	// steering encoding costs the 4-byte tag per frame.
	ofRate := topo.OFSwitch.PortCapacityBps * (1500.0 / 1530.0) * (1526.0 / 1530.0)

	return Figure3cResult{
		OFRateBps:     ofRate,
		ServerRateBps: serverRate,
		Speedup:       ofRate / serverRate,
	}
}

// ExtremeConfigResult captures the §5.2 stage-constraint study.
type ExtremeConfigResult struct {
	Scheme       placer.Scheme
	Feasible     bool
	Reason       string
	Stages       int
	NATsOnSwitch int
	NATsOnServer int
}

// ExtremeChainSpec is the §5.2 variant of chain 2 without encryption:
// BPF -> 11x NAT (branched) -> IPv4Fwd.
func ExtremeChainSpec(tminBps float64) string {
	s := fmt.Sprintf(`
chain extreme {
  slo { tmin = %.0f  tmax = 100000000000 }
  aggregate { src = 10.9.0.0/16 }
  bpf0 = BPF()
  fwd0 = IPv4Fwd()
`, tminBps)
	for i := 1; i <= 11; i++ {
		s += fmt.Sprintf("  nat%d = NAT()\n", i)
	}
	for i := 1; i <= 11; i++ {
		s += fmt.Sprintf("  bpf0 -> nat%d -> fwd0\n", i)
	}
	return s + "}\n"
}

// ExtremeConfig runs the 11-NAT chain across schemes. Expected shape:
// Lemur fits by moving exactly one NAT to the server (10 on-switch, 12
// stages); HW-Preferred and Minimum-Bounce overflow the pipeline; SW-
// Preferred cannot meet the SLO in software.
func ExtremeConfig(schemes []placer.Scheme) ([]ExtremeConfigResult, error) {
	topo := hw.NewPaperTestbed()
	db := profile.DefaultDB()
	// δ=0.5 of the chain's ~44.9 Gbps NAT base rate.
	natCycles := db.WorstCycles("NAT", nil) * topo.CrossSocketPenalty
	// The paper quotes t_min ≈ 44.9 Gbps/2 directly from one NAT core's
	// full-chain rate; our NIC caps a server bounce at 40G, so use the same
	// δ-scaled arithmetic on the unweighted NAT rate.
	tmin := 0.5 * topo.Servers[0].ClockHz / natCycles * placer.DefaultFrameBits

	chains, err := BuildChainsFromSpec(ExtremeChainSpec(tmin))
	if err != nil {
		return nil, err
	}
	var out []ExtremeConfigResult
	for _, scheme := range schemes {
		in := &placer.Input{Chains: chains, Topo: topo, DB: db, Restrict: EvalRestrict}
		res, err := placer.Place(scheme, in)
		if err != nil {
			return nil, err
		}
		row := ExtremeConfigResult{Scheme: scheme, Feasible: res.Feasible, Reason: res.Reason, Stages: res.Stages}
		for n, a := range res.Assign {
			if n.Class() != "NAT" {
				continue
			}
			switch a.Platform {
			case hw.PISA:
				row.NATsOnSwitch++
			case hw.Server:
				row.NATsOnServer++
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// SensitivityResult is one profiling-error point of the §5.2 study.
type SensitivityResult struct {
	ErrorFraction float64 // profiled costs scaled by (1 - this)
	Feasible      bool
	Marginal      float64
	SameAsBase    bool
}

// Sensitivity re-runs the four-chain placement with under-estimated
// profiles (1%..10%) and re-evaluates the decisions against true costs. The
// paper finds marginal throughput unchanged up to 8% error.
func (r *Runner) Sensitivity(delta float64, errs []float64) ([]SensitivityResult, float64, error) {
	in, _, err := r.input([]int{1, 2, 3, 4}, delta)
	if err != nil {
		return nil, 0, err
	}
	baseRes, err := placeFeasible("sensitivity baseline", placer.SchemeLemur, in)
	if err != nil {
		return nil, 0, err
	}
	var out []SensitivityResult
	for _, e := range errs {
		blind := *in
		blind.DB = in.DB.Scaled(1 - e)
		decided, err := placer.Place(placer.SchemeLemur, &blind)
		if err != nil {
			return nil, 0, err
		}
		row := SensitivityResult{ErrorFraction: e}
		if decided.Feasible {
			evaluated := placer.ReEvaluate(in, decided)
			row.Feasible = evaluated.Feasible
			row.Marginal = evaluated.Marginal
			row.SameAsBase = evaluated.Feasible &&
				evaluated.Marginal >= baseRes.Marginal*0.999
		}
		out = append(out, row)
	}
	return out, baseRes.Marginal, nil
}

// LatencyResult is one d_max point of the §5.3 latency study on chains
// {1, 4}.
type LatencyResult struct {
	DMaxSec   float64
	Feasible  bool
	Aggregate float64
	Bounces   int
}

// Latency reproduces the latency-SLO experiment: a 45µs budget admits the
// bouncy high-throughput placement; a tighter budget forces fewer bounces
// and lower throughput.
func (r *Runner) Latency(dmaxes []float64) ([]LatencyResult, error) {
	return r.LatencyAt(dmaxes, 1.0)
}

// LatencyAt runs the latency study at a chosen δ (core scarcity makes the
// bounce/throughput tradeoff bind). Each d_max replaces the receiver's
// DMaxSec for its row.
func (r *Runner) LatencyAt(dmaxes []float64, delta float64) ([]LatencyResult, error) {
	var out []LatencyResult
	for _, dmax := range dmaxes {
		lr := *r
		lr.DMaxSec = dmax
		in, _, err := lr.input([]int{1, 3}, delta)
		if err != nil {
			return nil, err
		}
		sr, res, err := lr.runInput(in, placer.SchemeLemur)
		if err != nil {
			return nil, err
		}
		row := LatencyResult{DMaxSec: dmax, Feasible: sr.Feasible, Aggregate: sr.MeasuredAggregate}
		if sr.Feasible {
			for _, g := range in.Chains {
				row.Bounces += placer.Bounces(g, res.Assign)
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// Table4Row is one profiled NF of Table 4.
type Table4Row struct {
	NF    string
	NUMA  profile.NUMA
	Stats profile.Stats
}

// Table4 profiles the paper's four example NFs at both NUMA placements,
// runs times each. runs=500 matches the paper; tests use fewer; fewer than
// one is an error.
func Table4(runs int) ([]Table4Row, error) {
	pr := profile.NewProfiler()
	pr.Runs = runs
	type spec struct {
		class  string
		params nf.Params
	}
	specs := []spec{
		{"Encrypt", nil},
		{"Dedup", nil},
		{"ACL", nf.Params{"rules": 1024}},
		{"NAT", nf.Params{"entries": 12000}},
	}
	var out []Table4Row
	for _, s := range specs {
		for _, numa := range []profile.NUMA{profile.SameNUMA, profile.DiffNUMA} {
			st, err := pr.Profile(s.class, s.params, numa)
			if err != nil {
				return nil, err
			}
			out = append(out, Table4Row{NF: s.class, NUMA: numa, Stats: st})
		}
	}
	return out, nil
}

// ScalingResult compares the two placement algorithms (§5.3: brute force
// 14901s vs heuristic 3.5s on hardware; the shape to reproduce is the
// orders-of-magnitude gap, in each Result's PlaceTime).
type ScalingResult struct {
	Heuristic  *placer.Result
	BruteForce *placer.Result
	SameResult bool // heuristic matched brute force's marginal
}

// PlacerScaling places the four-chain set with both algorithms.
func (r *Runner) PlacerScaling(delta float64, bruteBudget int) (*ScalingResult, error) {
	in, _, err := r.input([]int{1, 2, 3, 4}, delta)
	if err != nil {
		return nil, err
	}
	in.BruteForceBudget = bruteBudget
	heur, err := placer.Place(placer.SchemeLemur, in)
	if err != nil {
		return nil, err
	}
	brute, err := placer.Place(placer.SchemeOptimal, in)
	if err != nil {
		return nil, err
	}
	return &ScalingResult{Heuristic: heur, BruteForce: brute,
		SameResult: heur.Feasible == brute.Feasible &&
			(!heur.Feasible || heur.Marginal >= brute.Marginal*0.99)}, nil
}

// LoCResult is the §5.3 meta-compiler accounting for the four-chain set.
type LoCResult struct {
	P4Total     int
	P4Steering  int
	Handwritten int
	BESS        int
	AutoShare   float64
}

// MetaCompilerLoC compiles the four-chain Lemur placement and reports the
// auto-generated code share (paper: >1/3 of the P4, ~600 steering lines).
func (r *Runner) MetaCompilerLoC(delta float64) (*LoCResult, error) {
	in, _, err := r.input([]int{1, 2, 3, 4}, delta)
	if err != nil {
		return nil, err
	}
	res, err := placeFeasible(fmt.Sprintf("meta-compiler LoC at δ=%v", delta), placer.SchemeLemur, in)
	if err != nil {
		return nil, err
	}
	d, err := metacompiler.Compile(in, res)
	if err != nil {
		return nil, err
	}
	a := d.Artifacts()
	return &LoCResult{
		P4Total:     a.P4TotalLines,
		P4Steering:  a.P4SteeringLines,
		Handwritten: a.HandwrittenP4Lines,
		BESS:        a.BESSLines,
		AutoShare:   a.AutoGeneratedShare(),
	}, nil
}

// FeasibilityCell is one (combo, δ, scheme) feasibility record.
type FeasibilityCell struct {
	Combo    []int
	Delta    float64
	Scheme   placer.Scheme
	Feasible bool
}

// FeasibilitySummary sweeps all Figure 2 sets across schemes
// (placement-only, no measurement) and reports two shares per scheme: over
// all sets, and over *solvable* sets (those where at least one scheme found
// a solution) — the paper's "Lemur 100%, others 17-76%" is over sets that
// admit solutions; at high δ the rack genuinely cannot carry Σt_min and
// every scheme fails.
func (r *Runner) FeasibilitySummary(deltas []float64, schemes []placer.Scheme) ([]FeasibilityCell, map[placer.Scheme]float64, map[placer.Scheme]float64, error) {
	r2 := *r
	r2.SkipMeasure = true

	// Cells are independent: run them concurrently into index-addressed
	// slots, then aggregate in enumeration order so the cell list and the
	// shares are identical to a serial sweep.
	type job struct {
		combo  []int
		delta  float64
		scheme placer.Scheme
	}
	var jobs []job
	for _, combo := range Figure2Combos() {
		for _, d := range deltas {
			for _, s := range schemes {
				jobs = append(jobs, job{combo, d, s})
			}
		}
	}
	feasible := make([]bool, len(jobs))
	err := forEach(len(jobs), r.Parallel, func(i int) error {
		sr, _, err := r2.RunSet(jobs[i].combo, jobs[i].delta, jobs[i].scheme)
		if err != nil {
			return err
		}
		feasible[i] = sr.Feasible
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}

	var cells []FeasibilityCell
	count := map[placer.Scheme]int{}
	total, solvable := 0, 0
	for i := 0; i < len(jobs); i += len(schemes) {
		total++
		any := false
		for si, s := range schemes {
			ok := feasible[i+si]
			cells = append(cells, FeasibilityCell{
				Combo: jobs[i+si].combo, Delta: jobs[i+si].delta, Scheme: s, Feasible: ok})
			if ok {
				count[s]++
				any = true
			}
		}
		if any {
			solvable++
		}
	}
	// A set some scheme solved is a solvable set, so a scheme's feasible sets
	// all lie among them: both shares have the same numerator.
	share := map[placer.Scheme]float64{}
	solvShare := map[placer.Scheme]float64{}
	for _, s := range schemes {
		share[s] = float64(count[s]) / float64(total)
		if solvable > 0 {
			solvShare[s] = float64(count[s]) / float64(solvable)
		}
	}
	return cells, share, solvShare, nil
}
