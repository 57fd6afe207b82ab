// Package lemur is the public API of the Lemur reproduction — a system that
// places NF (network function) chains across heterogeneous hardware (a PISA
// programmable ToR switch, x86 servers running a BESS-style dataplane, eBPF
// SmartNICs, OpenFlow switches) so that every chain meets its SLO while the
// aggregate marginal throughput is maximized, then auto-generates the
// cross-platform steering code and executes it. It reproduces "Meeting SLOs
// in Cross-Platform NFV" (CoNEXT 2020).
//
// Typical use:
//
//	sys := lemur.New(lemur.WithSmartNIC())
//	err := sys.LoadSpec(`
//	  chain web {
//	    slo { tmin = 2Gbps  tmax = 100Gbps }
//	    aggregate { src = 10.0.0.0/8 }
//	    acl0 = ACL(allow_dst = "172.16.0.0/12")
//	    enc0 = Encrypt()
//	    fwd0 = IPv4Fwd()
//	    acl0 -> enc0 -> fwd0
//	  }`)
//	pl, err := sys.Place()     // where does every NF run, with how many cores?
//	dep, err := sys.Deploy()   // compile + stand up the simulated testbed
//	rep, err := dep.SendPackets(1000)
//	meas, err := dep.Measure() // achieved rates vs the SLO
package lemur

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"lemur/internal/chaos"
	"lemur/internal/hw"
	"lemur/internal/metacompiler"
	"lemur/internal/nfgraph"
	"lemur/internal/nfspec"
	"lemur/internal/placer"
	"lemur/internal/profile"
	"lemur/internal/runtime"
)

// Scheme selects the placement algorithm.
type Scheme string

// Placement schemes: Lemur's heuristic (default), exhaustive search, and
// the paper's baselines.
const (
	SchemeLemur       Scheme = Scheme(placer.SchemeLemur)
	SchemeOptimal     Scheme = Scheme(placer.SchemeOptimal)
	SchemeHWPreferred Scheme = Scheme(placer.SchemeHWPreferred)
	SchemeSWPreferred Scheme = Scheme(placer.SchemeSWPreferred)
	SchemeMinBounce   Scheme = Scheme(placer.SchemeMinBounce)
	SchemeGreedy      Scheme = Scheme(placer.SchemeGreedy)
)

// Scheduler policies for WithSchedPolicy.
const (
	// SchedEDF drains simulated subgroup queues earliest-deadline-first by
	// the metacompiler's per-subgroup slack whenever a chain carries a delay
	// SLO (d_max or d_max_p99). This is also the default behavior.
	SchedEDF = runtime.SchedEDF
	// SchedRR forces the legacy round-robin drain order even when chains
	// carry deadlines (the baseline arm of the latency experiments).
	SchedRR = runtime.SchedRR
)

// Option configures a System at construction.
type Option func(*options)

type options struct {
	topoOpts    []hw.TestbedOption
	scheme      placer.Scheme
	restrict    map[string][]hw.Platform
	parallel    int
	headroom    int
	simWorkers  int
	schedPolicy string
}

// WithSmartNIC attaches a 40G eBPF SmartNIC to the first server.
func WithSmartNIC() Option {
	return func(o *options) { o.topoOpts = append(o.topoOpts, hw.WithSmartNIC()) }
}

// WithServers deploys n identical NF servers instead of one.
func WithServers(n int) Option {
	return func(o *options) { o.topoOpts = append(o.topoOpts, hw.WithServers(n)) }
}

// WithOpenFlowSwitch adds an OpenFlow switch to the rack.
func WithOpenFlowSwitch() Option {
	return func(o *options) { o.topoOpts = append(o.topoOpts, hw.WithOpenFlowSwitch()) }
}

// WithScheme selects the placement algorithm (default SchemeLemur).
func WithScheme(s Scheme) Option {
	return func(o *options) { o.scheme = placer.Scheme(s) }
}

// WithP4Only restricts an NF class to the PISA switch (the evaluation pins
// IPv4Fwd this way).
func WithP4Only(class string) Option {
	return func(o *options) {
		if o.restrict == nil {
			o.restrict = map[string][]hw.Platform{}
		}
		o.restrict[class] = []hw.Platform{hw.PISA}
	}
}

// WithParallel sets the placer's candidate-evaluation worker count. Values
// <= 1 keep placement serial; any value yields the identical placement (the
// placer reduces candidates in a deterministic order), so this is purely a
// wall-clock knob.
func WithParallel(n int) Option {
	return func(o *options) { o.parallel = n }
}

// WithSimWorkers splits every simulation run (Simulate, SimulateWithFaults,
// SimulateChurn) across n worker shards that own disjoint connected
// components of the deployment's steering graph. Results are byte-identical
// at any value — like WithParallel, this is purely a wall-clock knob; 0 or
// 1 keeps runs serial, and negative values fail the run.
func WithSimWorkers(n int) Option {
	return func(o *options) { o.simWorkers = n }
}

// WithSchedPolicy selects the simulator's queue-drain discipline for every
// simulation run (Simulate, SimulateWithFaults, SimulateChurn): SchedEDF
// (also the default for the empty string) or SchedRR. Deadline-free chain
// sets behave identically under both.
func WithSchedPolicy(policy string) Option {
	return func(o *options) { o.schedPolicy = policy }
}

// WithAdmissionHeadroom reserves cores worker cores per server that the
// placer's throughput-maximizing spare-core pour will not touch, keeping
// budget free for chains admitted later (SimulateChurn, placer.Reconfigure). The
// reserve is discretionary: raising a chain to its t_min SLO may still use
// the cores. The default 0 matches the paper's offline placement, which
// spends every core on marginal throughput; Place refuses a negative reserve.
func WithAdmissionHeadroom(cores int) Option {
	return func(o *options) { o.headroom = cores }
}

// System is one Lemur instance over the paper's rack-scale testbed topology
// (a Tofino-class ToR plus Xeon NF servers): the loaded chains and the
// place → compile → deploy pipeline over them (Figure 1).
type System struct {
	opts options
	topo *hw.Topology
	db   *profile.DB

	graphs []*nfgraph.Graph
	in     *placer.Input  // the input the last Place solved; nil until then
	res    *placer.Result // the last placement, kept for Deploy
}

// testbedSeed seeds every deployment's traffic and measurement.
const testbedSeed = 1

// New builds a System over the paper's testbed, customized by options.
func New(opts ...Option) *System {
	o := options{scheme: placer.SchemeLemur}
	for _, opt := range opts {
		opt(&o)
	}
	return &System{opts: o, topo: hw.NewPaperTestbed(o.topoOpts...), db: profile.DefaultDB()}
}

var errNoChains = errors.New("lemur: no chains loaded")

// LoadSpec parses NF chain specification text (see the nfspec language in
// README) and adds its chains to the system. It may be called more than
// once; each call drops the last placement.
func (s *System) LoadSpec(src string) error {
	chains, err := nfspec.Parse(src)
	if err != nil {
		return err
	}
	for _, c := range chains {
		g, err := nfgraph.Build(c)
		if err != nil {
			return err
		}
		s.graphs = append(s.graphs, g)
	}
	s.in, s.res = nil, nil
	return nil
}

// place runs the configured scheme over graphs on the System's rack.
func (s *System) place(graphs []*nfgraph.Graph) (*placer.Input, *placer.Result, error) {
	if len(graphs) == 0 {
		return nil, nil, errNoChains
	}
	in := &placer.Input{
		Chains: graphs, Topo: s.topo, DB: s.db, Restrict: s.opts.restrict,
		Parallel: s.opts.parallel, HeadroomCores: s.opts.headroom,
	}
	res, err := placer.Place(s.opts.scheme, in)
	return in, res, err
}

// Place runs the placement algorithm and returns the outcome; Deploy uses
// it until the next Place or LoadSpec. An infeasible placement is not an
// error: inspect Placement.Feasible and Placement.Reason.
func (s *System) Place() (*Placement, error) {
	in, res, err := s.place(s.graphs)
	if err != nil {
		return nil, err
	}
	s.in, s.res = in, res
	return &Placement{graphs: s.graphs, res: res}, nil
}

// Deploy compiles the placement (running Place first if needed) and stands
// up the simulated cross-platform testbed. Every call compiles once into
// fresh state, so a deployment a failover run rewired never carries over.
func (s *System) Deploy() (*Deployment, error) {
	if s.res == nil {
		if _, err := s.Place(); err != nil {
			return nil, err
		}
	}
	d, err := metacompiler.Compile(s.in, s.res)
	if err != nil {
		return nil, err
	}
	return &Deployment{tb: runtime.New(d, testbedSeed), opts: &s.opts}, nil
}

// Placement reports where every NF landed and what the chains will get.
type Placement struct {
	graphs []*nfgraph.Graph
	res    *placer.Result
}

// Feasible reports whether every SLO can be met.
func (p *Placement) Feasible() bool { return p.res.Feasible }

// Reason explains an infeasible placement.
func (p *Placement) Reason() string { return p.res.Reason }

// MarginalBps is the aggregate marginal throughput (Σ rate−t_min).
func (p *Placement) MarginalBps() float64 { return p.res.Marginal }

// Truncated reports whether the Optimal scheme's search hit its budget
// before exhausting the combination space — the Result may be sub-optimal.
// Always false for the other schemes.
func (p *Placement) Truncated() bool { return p.res.Truncated }

// SkippedCombos counts the pattern combinations a truncated Optimal search
// left unscored (see Truncated).
func (p *Placement) SkippedCombos() int { return p.res.SkippedCombos }

// NFPlacement is one row of the placement report.
type NFPlacement struct {
	Chain    string
	NF       string
	Class    string
	Platform string // "server", "pisa", "smartnic", "openflow"
	Device   string
}

// Assignments lists every NF's placement, ordered by chain then topology.
func (p *Placement) Assignments() []NFPlacement {
	var out []NFPlacement
	for _, g := range p.graphs {
		for _, n := range g.Order {
			if a, ok := p.res.Assign[n]; ok {
				out = append(out, NFPlacement{
					Chain:    g.Chain.Name,
					NF:       n.Name(),
					Class:    n.Class(),
					Platform: a.Platform.String(),
					Device:   a.Device,
				})
			}
		}
	}
	return out
}

// SubgroupInfo is one server run-to-completion group with its cores.
type SubgroupInfo struct {
	Chain  string
	NFs    []string
	Server string
	Cores  int
}

// Subgroups lists the server subgroups and their core allocations.
func (p *Placement) Subgroups() []SubgroupInfo {
	var out []SubgroupInfo
	graphs := p.graphs
	for _, sg := range p.res.Subgroups {
		info := SubgroupInfo{Server: sg.Server, Cores: sg.Cores}
		if sg.ChainIdx < len(graphs) {
			info.Chain = graphs[sg.ChainIdx].Chain.Name
		}
		for _, n := range sg.Nodes {
			info.NFs = append(info.NFs, n.Name())
		}
		out = append(out, info)
	}
	return out
}

// Summary renders a human-readable placement report.
func (p *Placement) Summary() string {
	var b strings.Builder
	if !p.res.Feasible {
		fmt.Fprintf(&b, "INFEASIBLE: %s\n", p.res.Reason)
		return b.String()
	}
	fmt.Fprintf(&b, "feasible placement (%d switch stages, marginal %.2f Gbps)\n",
		p.res.Stages, p.res.Marginal/1e9)
	for i, g := range p.graphs {
		fmt.Fprintf(&b, "chain %-10s t_min %6.2f Gbps -> rate %6.2f Gbps\n",
			g.Chain.Name, g.Chain.SLO.TMinBps/1e9, p.res.ChainRates[i]/1e9)
	}
	rows := p.Assignments()
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Chain < rows[j].Chain })
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-10s %-8s (%-11s) -> %-8s %s\n", r.Chain, r.NF, r.Class, r.Platform, r.Device)
	}
	for _, sg := range p.Subgroups() {
		fmt.Fprintf(&b, "  subgroup [%s] on %s: %d core(s)\n",
			strings.Join(sg.NFs, " -> "), sg.Server, sg.Cores)
	}
	return b.String()
}

// Deployment is a live, compiled cross-platform installation.
type Deployment struct {
	tb *runtime.Testbed
	// opts are the System's options; simulate runs take their worker count
	// and scheduler policy.
	opts *options
}

// TrafficReport summarizes a packet-walk verification.
type TrafficReport struct {
	Injected, Egressed, Dropped int
}

// SendPackets generates n frames per chain and walks each through the full
// switch/server/NIC path, returning drop/egress accounting. It errors if
// steering ever wedges.
func (d *Deployment) SendPackets(n int) (*TrafficReport, error) {
	stats, err := d.tb.Verify(n)
	if err != nil {
		return nil, err
	}
	return &TrafficReport{Injected: stats.Injected, Egressed: stats.Egressed, Dropped: stats.Dropped}, nil
}

// Measurement reports achieved rates.
type Measurement struct {
	RatesBps        []float64
	AggregateBps    float64
	WorstLatencySec []float64
}

// Measure drives each chain at its placed rate and reports what the
// testbed actually achieves.
func (d *Deployment) Measure() (*Measurement, error) {
	m, err := d.tb.Measure(d.tb.D.Result.ChainRates)
	if err != nil {
		return nil, err
	}
	return &Measurement{RatesBps: m.Rates, AggregateBps: m.Aggregate, WorstLatencySec: m.WorstLatencySec}, nil
}

// P4Source returns the generated unified switch program. Each of the
// generated-code accessors renders the deployment's code anew.
func (d *Deployment) P4Source() string { return d.tb.D.Artifacts().P4Source }

// BESSScripts returns the generated per-server pipeline scripts.
func (d *Deployment) BESSScripts() map[string]string { return d.tb.D.Artifacts().BESSScripts }

// EBPFSources returns the generated SmartNIC XDP programs.
func (d *Deployment) EBPFSources() map[string]string { return d.tb.D.Artifacts().EBPFSources }

// AutoGeneratedShare is the fraction of deployment P4 code the
// meta-compiler generated (vs hand-written NF implementations).
func (d *Deployment) AutoGeneratedShare() float64 {
	return d.tb.D.Artifacts().AutoGeneratedShare()
}

// SimReport summarizes a discrete-time simulation run: per-chain goodput,
// loss, queueing delay at server subgroups, and packet accounting. Failover
// is non-nil only for SimulateWithFaults runs; Churn only for SimulateChurn
// runs (whose per-chain slices index final chain slots — admitted chains
// occupy the appended tail).
type SimReport struct {
	AchievedBps      []float64
	DropRate         []float64
	AvgQueueDelaySec []float64
	P99QueueDelaySec []float64
	// DeadlineCompliance is the per-chain fraction of egressed packets whose
	// queueing delay met the chain's d_max / d_max_p99 deadline. Nil when no
	// chain declares a deadline.
	DeadlineCompliance []float64
	Injected           []int
	Egressed           []int
	Failover           *FailoverOutcome
	Churn              *ChurnOutcome
}

// FailoverOutcome reports a fault-injection run: which scheduled events
// fired, how long each chain was down, what the faults cost in packets, and
// whether each chain's post-failover rate still clears its SLO. Slices are
// per chain, in spec order.
type FailoverOutcome = runtime.FailoverReport

// ChurnOutcome reports a chain-churn run: which scheduled admissions and
// retirements fired, which were rejected (and why), per-chain admission
// latency and churn drops, and post-churn SLO compliance. Per-chain slices
// index final chain slots: chains admitted mid-run occupy the appended tail,
// retired chains keep their slot. Times are seconds of simulated time;
// rates are bits/sec.
type ChurnOutcome = runtime.ChurnReport

// SimulateChurn runs the discrete-time simulator under a deterministic
// chain-churn schedule (admit and retire events in the chaos grammar, e.g.
// "admit:chain6@0.3s" or "admit:web@0.1s;retire:chain2@0.6s"). Chains named
// by admit events must be loaded into the System but are held out of the
// initial deployment: the run starts with the remaining chains placed and
// deployed, then each admission lands after the detection+reconfiguration
// window via the incremental
// placer.Reconfigure path (pin-preserving only — full-repack verdicts are recorded
// as rejections), and each retirement stops the chain's load at the request
// and reclaims its resources at the landing. Every chain offers loadFactor ×
// its placed rate; admitted chains offer their admitted rate.
//
// The returned report's Churn field carries the schedule outcome. Like a
// fault run, a churn run rewires its deployment in place, so each call
// deploys fresh state; the System's cached placement is untouched.
func (s *System) SimulateChurn(loadFactor float64, schedule string) (*SimReport, error) {
	plan, err := parseSchedule(schedule, true)
	if err != nil {
		return nil, err
	}
	admitTargets := map[string]bool{}
	for _, ev := range plan.Events {
		if ev.Kind == chaos.Admit {
			admitTargets[ev.Target] = true
		}
	}
	// The base chains share their graphs with the System by pointer, so the
	// run can admit the held-out ones incrementally (placer.Reconfigure keys
	// pinned state by pointer).
	catalog := map[string]*nfgraph.Graph{}
	var base []*nfgraph.Graph
	for _, g := range s.graphs {
		if admitTargets[g.Chain.Name] {
			catalog[g.Chain.Name] = g
		} else {
			base = append(base, g)
		}
	}
	for name := range admitTargets {
		if catalog[name] == nil {
			return nil, fmt.Errorf("lemur: admit target %q is not a loaded chain", name)
		}
	}
	in, res, err := s.place(base)
	if err != nil {
		return nil, err
	}
	d, err := metacompiler.Compile(in, res)
	if err != nil {
		return nil, err
	}
	offered := make([]float64, len(res.ChainRates))
	for i, r := range res.ChainRates {
		offered[i] = r * loadFactor
	}
	sim, err := runtime.New(d, testbedSeed).Simulate(offered, runtime.SimConfig{
		Seed: testbedSeed, DurationSec: 0.5, Faults: plan, ChurnCatalog: catalog,
		Workers: s.opts.simWorkers, SchedPolicy: s.opts.schedPolicy,
	})
	if err != nil {
		return nil, err
	}
	return newSimReport(sim), nil
}

// Simulate runs the discrete-time packet simulator with every chain
// offering loadFactor × its placed rate (1.0 = the planned operating point;
// >1 provokes queueing and drops). Unlike Measure's steady-state law, this
// walks individual frames through bounded queues with per-core cycle
// budgets, exposing drop onset and latency inflation under overload.
func (d *Deployment) Simulate(loadFactor float64) (*SimReport, error) {
	return d.simulate(loadFactor, nil)
}

// SimulateWithFaults runs the discrete-time simulator with a deterministic
// fault-injection schedule (the chaos grammar, e.g.
// "crash:nf-server-1@0.3s" or "crash:nf-server-1@0.1s;overload:nf-server-2@0.2sx4").
// Crashes drop in-flight packets, blackhole steered traffic for the
// detection+reconfiguration window, then trigger an incremental
// re-placement and steering rewire mid-run; the returned report's Failover
// field carries per-chain downtime, fault drops, and post-failover SLO
// compliance. A failover run rewires the deployment in place — Deploy a
// fresh one per run.
func (d *Deployment) SimulateWithFaults(loadFactor float64, schedule string) (*SimReport, error) {
	plan, err := parseSchedule(schedule, false)
	if err != nil {
		return nil, err
	}
	return d.simulate(loadFactor, plan)
}

// parseSchedule parses a schedule in the chaos grammar whose events must all
// be churn events (admit, retire) when churn is set, else all faults (crash,
// degrade, overload).
func parseSchedule(schedule string, churn bool) (*chaos.Plan, error) {
	plan, err := chaos.Parse(schedule)
	if err != nil {
		return nil, err
	}
	for _, ev := range plan.Events {
		if ev.Kind.Churn() != churn {
			want := "fault"
			if churn {
				want = "churn"
			}
			return nil, fmt.Errorf("lemur: %s is not a %s event", ev, want)
		}
	}
	return plan, nil
}

func (d *Deployment) simulate(loadFactor float64, plan *chaos.Plan) (*SimReport, error) {
	offered := make([]float64, len(d.tb.D.Result.ChainRates))
	for i, r := range d.tb.D.Result.ChainRates {
		offered[i] = r * loadFactor
	}
	sim, err := d.tb.Simulate(offered, runtime.SimConfig{
		Seed: d.tb.Seed, DurationSec: 0.5, Faults: plan,
		Workers: d.opts.simWorkers, SchedPolicy: d.opts.schedPolicy,
	})
	if err != nil {
		return nil, err
	}
	return newSimReport(sim), nil
}

// newSimReport translates the runtime's simulation result into the public
// report shape.
func newSimReport(sim *runtime.SimResult) *SimReport {
	return &SimReport{
		AchievedBps:        sim.AchievedBps,
		DropRate:           sim.DropRate,
		AvgQueueDelaySec:   sim.AvgQueueDelaySec,
		P99QueueDelaySec:   sim.P99QueueDelaySec,
		DeadlineCompliance: sim.DeadlineCompliance,
		Injected:           sim.Injected,
		Egressed:           sim.Egressed,
		Failover:           sim.Failover,
		Churn:              sim.Churn,
	}
}
