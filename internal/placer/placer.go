// Package placer implements Lemur's Placer (§3): given NF chains with SLOs
// and a heterogeneous topology, it decides where every NF runs (PISA switch,
// server + core allocation, SmartNIC, OpenFlow switch) such that every chain
// receives its minimum rate while the aggregate marginal throughput is
// maximized.
//
// Schemes:
//
//   - Lemur      — the fast three-step heuristic of §3.2 (stage check,
//     subgroup coalescing, LP-based marginal maximization)
//   - Optimal    — brute-force pattern/core enumeration, ranked by LP, with
//     the PISA compiler consulted down the ranking
//   - HWPreferred, SWPreferred, MinBounce, Greedy — the paper's baselines
//   - NoProfiling, NoCoreAlloc — the Figure 2f ablations
package placer

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"lemur/internal/hw"
	"lemur/internal/nfgraph"
	"lemur/internal/obs"
	"lemur/internal/profile"
)

// Scheme names a placement strategy.
type Scheme string

// Placement schemes.
const (
	SchemeLemur       Scheme = "Lemur"
	SchemeOptimal     Scheme = "Optimal"
	SchemeHWPreferred Scheme = "HWPreferred"
	SchemeSWPreferred Scheme = "SWPreferred"
	SchemeMinBounce   Scheme = "MinBounce"
	SchemeGreedy      Scheme = "Greedy"
	SchemeNoProfiling Scheme = "NoProfiling"
	SchemeNoCoreAlloc Scheme = "NoCoreAlloc"
	// SchemeMILP runs the Lemur pipeline with exact MILP core allocation
	// (the paper's open-sourced MILP formulation, solved by branch and
	// bound over our simplex).
	SchemeMILP Scheme = "MILP"
	// SchemeNoCoalesce ablates heuristic step 2: no subgroup coalescing.
	SchemeNoCoalesce Scheme = "NoCoalesce"
)

// Schemes lists every implemented scheme in evaluation order.
func Schemes() []Scheme {
	return []Scheme{SchemeLemur, SchemeOptimal, SchemeHWPreferred, SchemeSWPreferred,
		SchemeMinBounce, SchemeGreedy}
}

// DefaultFrameBits is the wire size assumed when converting packets/sec to
// bits/sec (1530-byte frames, see internal/trafficgen).
const DefaultFrameBits = 1530 * 8

// Input is everything the Placer consumes.
type Input struct {
	Chains []*nfgraph.Graph
	Topo   *hw.Topology
	DB     *profile.DB

	// FrameBits converts pps to bps; 0 means DefaultFrameBits.
	FrameBits float64

	// Restrict overrides the platform choices for an NF class (the
	// evaluation's "IPv4Fwd is P4-only" restriction). nil entries fall back
	// to the registry.
	Restrict map[string][]hw.Platform

	// HeadroomCores withholds this many worker cores per server from the
	// discretionary spare-core pour, so an online deployment keeps budget
	// free for future admissions. Raising subgroups to t_min may still
	// consume the reserve (feasibility comes first); only the
	// throughput-maximizing extra cores honor it. 0 reserves nothing, which
	// matches the paper's offline placement.
	HeadroomCores int

	// BruteForceBudget caps the number of cross-chain pattern combinations
	// the Optimal scheme scores (0 = default).
	BruteForceBudget int

	// Parallel is the candidate-evaluation worker count. Values <= 1 mean
	// serial; any value produces byte-identical Results (candidates are
	// reduced in enumeration order with fixed tie-breaks).
	Parallel int

	// ExhaustiveSearch disables the Optimal scheme's incumbent pruning and
	// search budget so every canonical pattern combination is scored — the
	// reference the branch-and-bound search is property-tested against
	// (byte-identical Results by construction). Exponential: use on inputs
	// whose combination space is known to be small.
	ExhaustiveSearch bool

	// DisableSymmetry turns off the Optimal scheme's symmetry
	// canonicalization over interchangeable chains, forcing the search to
	// visit every chain-permutation-equivalent combo it would otherwise
	// collapse. Benchmarks use it to measure collapse rates.
	DisableSymmetry bool

	// disableCoreScaling pins every subgroup to one core (the Figure 2f
	// "No Core Allocation" ablation); only SchemeNoCoreAlloc sets it.
	disableCoreScaling bool

	// disableCoalescing ablates heuristic step 2 (subgroup coalescing); only
	// SchemeNoCoalesce sets it.
	disableCoalescing bool

	// prep caches per-input derived state (worst-case node cycles, server
	// indices, stage verdicts). Every entry point installs one that matches
	// the input's current chains, DB and topology (ensurePrep), so copies
	// of an Input with a swapped cost database or a reduced topology stay
	// correct.
	prep *inputPrep
}

func (in *Input) frameBits() float64 {
	if in.FrameBits > 0 {
		return in.FrameBits
	}
	return DefaultFrameBits
}

// FrameBitsOrDefault exposes the pps→bps conversion factor to the runtime.
func (in *Input) FrameBitsOrDefault() float64 { return in.frameBits() }

// Assign records where one NF node runs.
type Assign struct {
	Platform hw.Platform
	Device   string // server / smartnic / switch name
}

// SwitchPipelineSec is the fixed latency of one pass through the PISA
// pipeline. Every path delay the system models starts from it: the placer's
// d_max and d_max_p99 checks, the runtime's measured path latency and the
// metacompiler's EDF slacks.
const SwitchPipelineSec = 1e-6

// HopFrom reports whether a packet that was last at prev crosses a link to
// reach a: the platform changes or — off the switch, which is one device —
// the device does. A path starts and ends at the ToR, Assign{Platform:
// hw.PISA}, so one that ends anywhere else pays one more hop to egress.
func (a Assign) HopFrom(prev Assign) bool {
	return a.Platform != prev.Platform || (a.Platform != hw.PISA && a.Device != prev.Device)
}

// Subgroup is a maximal run of contiguous server NFs executed
// run-to-completion on shared cores (§3.2).
type Subgroup struct {
	ChainIdx   int
	Nodes      []*nfgraph.Node
	Server     string
	Weight     float64 // fraction of the chain's traffic through this run
	Cycles     float64 // per-packet cost incl. coordination overheads
	Replicable bool
	Cores      int
}

// Name renders a stable identifier.
func (sg *Subgroup) Name() string {
	if len(sg.Nodes) == 0 {
		return fmt.Sprintf("c%d/empty", sg.ChainIdx)
	}
	return fmt.Sprintf("c%d/%s..%s", sg.ChainIdx, sg.Nodes[0].Name(), sg.Nodes[len(sg.Nodes)-1].Name())
}

// NICUse is one SmartNIC-resident NF with its traffic weight.
type NICUse struct {
	ChainIdx int
	Node     *nfgraph.Node
	Device   string
	Weight   float64
	Cycles   float64
}

// Result is a finished placement. Rates are bits/sec, cores are whole
// worker cores, Stages counts PISA pipeline stages. Placement is
// deterministic: the same Input and Scheme always yield the same Result,
// at any Input.Parallel worker count.
type Result struct {
	Scheme   Scheme
	Feasible bool
	Reason   string // why infeasible, when !Feasible

	Assign    map[*nfgraph.Node]Assign
	Subgroups []*Subgroup
	NICUses   []*NICUse

	// Breaks marks nodes that start a new run-to-completion subgroup even
	// though the server run continues — the Placer splits runs so a
	// non-replicable NF does not pin an otherwise scalable run to one core
	// (the §5.3 Fig 3a Dedup/Limiter split). The meta-compiler derives its
	// segments from the same marks.
	Breaks map[*nfgraph.Node]bool

	// ChainRates are the LP-assigned rates (bps) per chain; Marginal is
	// Σ(rate - tmin); PredictedAggregate is Σ rates.
	ChainRates         []float64
	Marginal           float64
	PredictedAggregate float64

	// PredictedP99Sec is the per-chain predicted 99th-percentile delay at
	// the LP-assigned rates: the worst root-to-leaf path's fixed delay
	// (execution, switch pipeline, hop latency) plus an M/M/1 p99 queueing
	// estimate at every server subgroup the path crosses. +Inf marks a
	// saturated subgroup (ρ >= 1). Filled on every feasible result — Place,
	// Reconfigure and ReEvaluate alike — and only on those.
	PredictedP99Sec []float64

	// Stages is the PISA compiler's verdict for this placement.
	Stages int

	// Retired marks chain slots that Reconfigure has retired. A chain's
	// index determines its SPI range and downstream pointer-keyed state, so
	// retiring keeps the slot (the chain stays in Input.Chains) but removes
	// every assignment and resource: retired slots contribute no subgroups,
	// no NIC uses, no switch tables, and a zero rate in the LP. nil means no
	// slot is retired; churn-free placements never allocate it.
	Retired []bool

	// PlaceTime is how long placement took.
	PlaceTime time.Duration

	// Truncated reports that the Optimal search hit BruteForceBudget before
	// exhausting the canonical combination space, so the Result may be
	// sub-optimal; SkippedCombos counts the canonical combos the budget
	// left unscored (exact up to an internal counting cap, a floor beyond
	// it). Always false/0 for the other schemes.
	Truncated     bool
	SkippedCombos int

	// Search summarizes the Optimal scheme's branch-and-bound search;
	// nil for every other scheme.
	Search *SearchStats
}

// IsRetired reports whether chain slot ci has been retired (see Retired).
func (res *Result) IsRetired(ci int) bool {
	return res.Retired != nil && ci < len(res.Retired) && res.Retired[ci]
}

// ActiveChains counts chain slots that are not retired.
func (res *Result) ActiveChains() int {
	active := 0
	for ci := 0; ci < len(res.ChainRates); ci++ {
		if !res.IsRetired(ci) {
			active++
		}
	}
	return active
}

// Infeasible constructs a failed result.
func infeasible(scheme Scheme, reason string) *Result {
	return &Result{Scheme: scheme, Feasible: false, Reason: reason}
}

// ErrUnknownScheme is returned by Place for unrecognized scheme names.
var ErrUnknownScheme = errors.New("placer: unknown scheme")

// Place runs the named scheme.
func Place(scheme Scheme, in *Input) (*Result, error) {
	if err := in.Topo.Validate(); err != nil {
		return nil, err
	}
	in.ensurePrep()
	start := time.Now()
	sp := obs.Span("placer.place").
		SetAttr("scheme", string(scheme)).
		SetAttrInt("chains", len(in.Chains))
	var (
		res *Result
		err error
	)
	switch scheme {
	case SchemeLemur:
		res, err = placeLemur(in)
	case SchemeOptimal:
		res, err = placeBruteForce(in)
	case SchemeHWPreferred:
		res, err = placeHWPreferred(in)
	case SchemeSWPreferred:
		res, err = placeSWPreferred(in)
	case SchemeMinBounce:
		res, err = placeMinBounce(in)
	case SchemeGreedy:
		res, err = placeGreedy(in)
	case SchemeNoProfiling:
		res, err = placeNoProfiling(in)
	case SchemeNoCoreAlloc:
		res, err = placeNoCoreAlloc(in)
	case SchemeMILP:
		res, err = placeMILP(in)
	case SchemeNoCoalesce:
		res, err = placeNoCoalesce(in)
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownScheme, scheme)
	}
	if err != nil {
		sp.SetAttr("error", err.Error()).End()
		return nil, err
	}
	res.Scheme = scheme
	res.PlaceTime = time.Since(start)
	outcome := "feasible"
	if !res.Feasible {
		outcome = "infeasible"
	}
	obs.C("lemur_placer_placements_total",
		obs.L("scheme", string(scheme)), obs.L("outcome", outcome)).Inc()
	sp.SetAttrBool("feasible", res.Feasible).
		SetAttrInt("stages", res.Stages).
		SetAttrFloat("marginal_bps", res.Marginal).
		SetAttrFloat("aggregate_bps", res.PredictedAggregate).
		End()
	return res, nil
}

// allowedPlatforms returns the platforms node may run on under this input:
// registry availability, optional class restriction, and topology presence.
func (in *Input) allowedPlatforms(n *nfgraph.Node) []hw.Platform {
	var out []hw.Platform
	for _, p := range in.candidatePlatforms(n) {
		if in.present(p) {
			out = append(out, p)
		}
	}
	return out
}

// candidatePlatforms is node's platform list before topology presence.
func (in *Input) candidatePlatforms(n *nfgraph.Node) []hw.Platform {
	if r, ok := in.Restrict[n.Class()]; ok {
		return r
	}
	return n.Meta.Platforms
}

// present reports whether the topology has any device of platform p.
func (in *Input) present(p hw.Platform) bool {
	switch p {
	case hw.Server:
		return len(in.Topo.Servers) > 0
	case hw.PISA:
		return in.Topo.Switch != nil
	case hw.SmartNIC:
		return len(in.Topo.SmartNICs) > 0
	case hw.OpenFlow:
		return in.Topo.OFSwitch != nil
	}
	return false
}

// allows reports whether node may run on platform p. It allocates nothing:
// the latency check and the eviction loops ask it per node per candidate.
func (in *Input) allows(n *nfgraph.Node, p hw.Platform) bool {
	return in.present(p) && slices.Contains(in.candidatePlatforms(n), p)
}

// nodeCycles is the profiled worst-case server cost of one node, inflated by
// the worst-case cross-socket penalty (the paper's conservative profiles).
func (in *Input) nodeCycles(n *nfgraph.Node) float64 {
	return in.rawWorstCycles(n) * in.Topo.CrossSocketPenalty
}

// clockHz returns the NF servers' clock (uniform in our topologies).
func (in *Input) clockHz() float64 { return in.Topo.Servers[0].ClockHz }

// totalWorkerCores sums worker cores across servers.
func (in *Input) totalWorkerCores() int {
	total := 0
	for _, s := range in.Topo.Servers {
		total += s.WorkerCores()
	}
	return total
}

func minF(a, b float64) float64 { return math.Min(a, b) }
