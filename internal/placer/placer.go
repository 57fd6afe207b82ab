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
//   - NoProfiling, NoCoreAlloc, NoCoalesce — the Figure 2f ablations
package placer

import (
	"errors"
	"fmt"
	"math"
	"slices"

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

	// Restrict overrides the platform choices for an NF class (the
	// evaluation's "IPv4Fwd is P4-only" restriction). nil entries fall back
	// to the registry.
	Restrict map[string][]hw.Platform

	// HeadroomCores withholds this many worker cores per server from the
	// discretionary spare-core pour, so an online deployment keeps budget
	// free for future admissions. Raising subgroups to t_min may still
	// consume the reserve (feasibility comes first); only the
	// throughput-maximizing extra cores honor it. 0 reserves nothing, which
	// matches the paper's offline placement; a negative value is refused.
	HeadroomCores int

	// BruteForceBudget caps the number of cross-chain pattern combinations
	// the Optimal scheme scores (0 = default).
	BruteForceBudget int

	// Parallel is the candidate-evaluation worker count. Values <= 1 mean
	// serial; any value produces byte-identical Results (candidates are
	// reduced in enumeration order with fixed tie-breaks).
	Parallel int

	// prep caches per-input derived state (worst-case node cycles, server
	// indices, stage verdicts). Every entry point installs one that matches
	// the input's current chains, DB and topology (ensurePrep), so copies
	// of an Input with a swapped cost database or a reduced topology stay
	// correct.
	prep *inputPrep
}

// FrameBitsOrDefault is DefaultFrameBits, the pps→bps conversion factor. It
// stays a method only because bench/ still calls it; new code uses the
// constant.
func (in *Input) FrameBitsOrDefault() float64 { return DefaultFrameBits }

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

// infeasible constructs a failed result.
func infeasible(scheme Scheme, reason string) *Result {
	return &Result{Scheme: scheme, Feasible: false, Reason: reason}
}

// errUnknownScheme is returned by Place for unrecognized scheme names.
var errUnknownScheme = errors.New("placer: unknown scheme")

// Place runs the named scheme.
func Place(scheme Scheme, in *Input) (*Result, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	in.ensurePrep()
	sp := obs.Span("placer.place").
		SetAttr("scheme", string(scheme)).
		SetAttrInt("chains", len(in.Chains))
	var (
		res *Result
		err error
	)
	switch scheme {
	case SchemeLemur:
		res, err = lemurHeuristic(in, policyMarginal, true)
	case SchemeOptimal:
		res, err = placeBruteForce(in, searchPruned)
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
		// Every subgroup keeps the one core it starts with.
		res, err = lemurHeuristic(in, policyNone, true)
	case SchemeNoCoalesce:
		// Step 2 skipped: bridge NFs never move off the switch to merge
		// subgroups and free cores.
		res, err = lemurHeuristic(in, policyMarginal, false)
	default:
		return nil, fmt.Errorf("%w: %q", errUnknownScheme, scheme)
	}
	if err != nil {
		sp.SetAttr("error", err.Error()).End()
		return nil, err
	}
	res.Scheme = scheme
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

// validate rejects what Place and Reconfigure treat as API misuse: an
// invalid topology, and a negative HeadroomCores, which would let the
// spare-core pour hand out cores past a server's budget.
func (in *Input) validate() error {
	if err := in.Topo.Validate(); err != nil {
		return err
	}
	if in.HeadroomCores < 0 {
		return fmt.Errorf("placer: HeadroomCores must be >= 0, got %d", in.HeadroomCores)
	}
	return nil
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

// nodeCycles is the profiled worst-case server cost of node n of chain ci,
// inflated by the worst-case cross-socket penalty (the paper's conservative
// profiles).
func (in *Input) nodeCycles(ci int, n *nfgraph.Node) float64 {
	return in.rawWorstCycles(ci, n) * in.Topo.CrossSocketPenalty
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
