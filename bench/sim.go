package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"lemur/internal/chaos"
	"lemur/internal/experiments"
	"lemur/internal/hw"
	"lemur/internal/metacompiler"
	"lemur/internal/nfgraph"
	"lemur/internal/nfspec"
	"lemur/internal/placer"
	"lemur/internal/profile"
	"lemur/internal/runtime"
)

// simSpec is the frozen definition of one simulator workload. Later issues
// cite these numbers; change them only in an issue of their own.
type simSpec struct {
	name string
	// chains renders the spec text for the topology.
	chains func(topo *hw.Topology, db *profile.DB) (string, error)
	topo   func() *hw.Topology
	// serverOnly pins these NF classes to servers so their packets cross
	// the bess dataplane (and its state tables) and not a switch table.
	serverOnly []string

	scale     float64
	queueCap  int
	workers   int
	flowScale int
	flowChurn bool
	faults    string // chaos plan; "" for none
	// targetPkts sizes a repetition: the simulated duration is chosen so
	// that about this many packets are injected. durationSec overrides it
	// for the failover workload, whose fault plan fixes the timeline.
	targetPkts  int
	durationSec float64
	// reuse keeps one deployment across repetitions, so NF state tables
	// are warm and lookups hit; false compiles a fresh one per repetition.
	reuse bool
}

// Limiter's default 1.5 Mbit bucket drains within one 1 ms step at Scale 1,
// where a step injects thousands of packets at one instant; left alone it
// drops 44-95 % of a chain. 200 Mbit holds a full step at t_max.
const limiterTune = "Limiter(rate_mbps = 100000, burst_kbits = 200000)"

// tune is one textual change to experiments.ChainSpec output.
type tune struct{ old, new string }

// retune applies the tunes; every one must match, so a change to the
// canonical chain text is an error and not a silently different workload.
func retune(spec string, tunes []tune) (string, error) {
	for _, t := range tunes {
		if !strings.Contains(spec, t.old) {
			return "", fmt.Errorf("chain spec has no %q to tune: experiments.ChainSpec changed", t.old)
		}
		spec = strings.ReplaceAll(spec, t.old, t.new)
	}
	return spec, nil
}

// halfBase is the SLO band of the paper's delta = 0.5 point: t_min is half
// the chain's base rate, t_max 100 Gbps.
func halfBase(_ int, base float64) (tmin, tmax float64) { return 0.5 * base, hw.Gbps(100) }

// canonicalChains renders canonical chains idxs, each with the SLO band
// that band gives for its base rate.
func canonicalChains(idxs []int, band func(idx int, base float64) (tmin, tmax float64), tunes []tune) func(*hw.Topology, *profile.DB) (string, error) {
	return func(topo *hw.Topology, db *profile.DB) (string, error) {
		bases, err := experiments.BaseRates(idxs, topo, db)
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		for i, idx := range idxs {
			tmin, tmax := band(idx, bases[i])
			s, err := experiments.ChainSpec(idx, tmin, tmax, 0)
			if err != nil {
				return "", err
			}
			sb.WriteString(s)
		}
		return retune(sb.String(), tunes)
	}
}

// frameChains are three chains of trivial NF bodies: bare forwarding.
const frameChains = `
chain fp_acl {
  slo { tmin = 1Gbps  tmax = 100Gbps }
  aggregate { src = 10.1.0.0/16  dst = 172.16.0.0/12 }
  acl = ACL(allow_dst = "172.16.0.0/12", rules = 64)
  fwd = IPv4Fwd()
  acl -> fwd
}
chain fp_tunnel {
  slo { tmin = 1Gbps  tmax = 8Gbps }
  aggregate { src = 10.2.0.0/16  dst = 172.16.0.0/12 }
  tun = Tunnel()
  lim = ` + limiterTune + `
  det = Detunnel()
  fwd = IPv4Fwd()
  tun -> lim -> det -> fwd
}
chain fp_monitor {
  slo { tmin = 1Gbps  tmax = 100Gbps }
  aggregate { src = 10.3.0.0/16  dst = 172.16.0.0/12 }
  bpf = BPF()
  mon = Monitor()
  fwd = IPv4Fwd()
  bpf -> mon -> fwd
}`

// The SmartNIC's eBPF interpreter costs ~90 us a packet, thirty times a
// server hop. Left at the LP's 40 Gbps, chain 5 would be half the packets
// and nine tenths of the run, and the stateful pair would measure only the
// interpreter. A fixed band at 8 % of its base rate (about 400 Mbps) keeps
// the NIC in the picture (about 1 % of packets) while NF bodies and state
// tables dominate.
func narrowChain5(idx int, base float64) (tmin, tmax float64) {
	switch idx {
	case 5:
		return 0.04 * base, 0.04 * base
	case 3, 4:
		return 3 * base, hw.Gbps(100)
	}
	return halfBase(idx, base)
}

var limiterOnly = []tune{{"Limiter(rate_mbps = 100000)", limiterTune}}

// hitTunes raise every state table's cap above the working set, so that a
// replay of the same flows on a warm deployment finds every key. The
// Limiter's bucket holds every repetition's traffic outright: simulated time
// restarts at 0 with each Simulate, a reused Limiter remembers the end of
// the first run as its last refill and never refills again, and with a
// bucket of one step it would drop its whole branch from the second
// repetition on.
var hitTunes = []tune{
	{"NAT()", "NAT(entries = 45536)"},
	{"Dedup()", "Dedup(cache = 4194304)"},
	{"LB()", "LB(affinity = 1048576)"},
	{"Monitor()", "Monitor(max_flows = 1048576)"},
	{"Limiter(rate_mbps = 100000)", "Limiter(rate_mbps = 100000, burst_kbits = 1000000000)"},
}

var statefulClasses = []string{"NAT", "Monitor", "Dedup", "LB"}

func rack(servers int, opts ...hw.TestbedOption) func() *hw.Topology {
	return func() *hw.Topology {
		return hw.NewPaperTestbed(append([]hw.TestbedOption{hw.WithServers(servers)}, opts...)...)
	}
}

var simSpecs = map[string]simSpec{
	simFrame: {
		name:       simFrame,
		chains:     func(*hw.Topology, *profile.DB) (string, error) { return frameChains, nil },
		topo:       rack(4),
		serverOnly: []string{"ACL", "Tunnel", "Detunnel", "BPF", "Match", "Monitor", "Limiter"},
		scale:      1, queueCap: 4096, workers: 1,
		targetPkts: 250_000,
	},
	simHit: {
		name:       simHit,
		chains:     canonicalChains([]int{1, 2, 3, 4, 5}, narrowChain5, hitTunes),
		topo:       rack(8, hw.WithSmartNIC()),
		serverOnly: statefulClasses,
		scale:      1, queueCap: 4096, workers: 1,
		flowScale:  200_000,
		targetPkts: 100_000,
		reuse:      true,
	},
	simChurn: {
		name:       simChurn,
		chains:     canonicalChains([]int{1, 2, 3, 4, 5}, narrowChain5, limiterOnly),
		topo:       rack(8, hw.WithSmartNIC()),
		serverOnly: statefulClasses,
		// Scale 10 stretches the same packets over ten times the simulated
		// time, so that flows (1 s lifetime) expire and arrive within a
		// repetition.
		scale: 10, queueCap: 4096, workers: 1,
		flowScale: 100_000, flowChurn: true,
		targetPkts: 80_000,
	},
	simFail: {
		name:   simFail,
		chains: canonicalChains([]int{1, 2, 3, 4}, halfBase, limiterOnly),
		topo:   rack(8),
		// Scale 40 is the largest at which one core's two-step credit cap
		// (2 x 42 500 cycles) still covers the costliest subgroup (Dedup,
		// 37 654 cycles, doubled by the overload); beyond it the engine can
		// never serve that subgroup and the chain's goodput is zero.
		scale: 40, queueCap: 1024, workers: 2,
		// 4096 flows a chain: with the default 40, the hash split at a
		// branch is so uneven that goodput swings by tens of percent with
		// the seed.
		flowScale:   4096,
		faults:      "crash:nf-server-1@0.2s;overload:nf-server-2@0.6sx2;crash:nf-server-3@1s",
		durationSec: 1.4,
	},
}

// simWorkload runs one simSpec.
type simWorkload struct {
	spec simSpec
	seed int64

	in      *placer.Input
	res     *placer.Result
	offered []float64
	cfg     runtime.SimConfig
	// warm is the reused deployment's testbed (spec.reuse only).
	warm *runtime.Testbed
	// coldMs is the wall time of the first Simulate of the process.
	coldMs float64
}

// input builds the chains and the placer input.
func (w *simWorkload) input(tr *tracer) error {
	topo, db := w.spec.topo(), profile.DefaultDB()
	text, err := w.spec.chains(topo, db)
	if err != nil {
		return err
	}
	graphs, err := buildGraphs(text, tr)
	if err != nil {
		return err
	}
	restrict := map[string][]hw.Platform{}
	for class, p := range experiments.EvalRestrict {
		restrict[class] = p
	}
	for _, class := range w.spec.serverOnly {
		restrict[class] = []hw.Platform{hw.Server}
	}
	// Placer Parallel stays 1: the box has two cores and the simulator's
	// workers use them.
	w.in = &placer.Input{Chains: graphs, Topo: topo, DB: db, Restrict: restrict, Parallel: 1}
	return nil
}

func (w *simWorkload) setup(seed int64) error {
	w.seed = seed
	if err := w.input(nil); err != nil {
		return err
	}
	res, err := placer.Place(placer.SchemeLemur, w.in)
	if err != nil {
		return err
	}
	if !res.Feasible {
		return fmt.Errorf("%s: placement infeasible: %s", w.spec.name, res.Reason)
	}
	w.res = res
	w.offered = append([]float64(nil), res.ChainRates...)
	w.cfg, err = w.simConfig(1)
	if err != nil {
		return err
	}
	// Warm-up: one discarded repetition. It also fills the reused
	// deployment's tables.
	tb, err := w.testbed()
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := tb.Simulate(w.offered, w.cfg); err != nil {
		return err
	}
	if w.coldMs == 0 {
		w.coldMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	if w.spec.reuse {
		w.warm = tb
	}
	return nil
}

// simConfig sizes a run to share x the spec's packet target.
func (w *simWorkload) simConfig(share float64) (runtime.SimConfig, error) {
	s := w.spec
	cfg := runtime.SimConfig{
		StepSec: 1e-3, Scale: s.scale, QueueCap: s.queueCap, Seed: w.seed,
		Workers: s.workers, FlowScale: s.flowScale, FlowChurn: s.flowChurn,
		DurationSec: s.durationSec,
	}
	if s.faults != "" {
		plan, err := chaos.Parse(s.faults)
		if err != nil {
			return cfg, err
		}
		cfg.Faults = plan
	}
	if s.targetPkts > 0 {
		steps := math.Ceil(share * float64(s.targetPkts) / w.pktsPerStep(cfg))
		cfg.DurationSec = steps * cfg.StepSec
	}
	return cfg, nil
}

// pktsPerStep is how many packets the engine injects per step over all
// chains.
func (w *simWorkload) pktsPerStep(cfg runtime.SimConfig) float64 {
	sum := 0.0
	for _, r := range w.offered {
		sum += r
	}
	return sum / w.in.FrameBitsOrDefault() / cfg.Scale * cfg.StepSec
}

// testbed compiles a fresh deployment of the placement.
func (w *simWorkload) testbed() (*runtime.Testbed, error) {
	d, err := metacompiler.Compile(w.in, w.res)
	if err != nil {
		return nil, err
	}
	return runtime.New(d, w.seed), nil
}

func (w *simWorkload) rep() (repResult, error) {
	tb := w.warm
	if !w.spec.reuse {
		var err error
		if tb, err = w.testbed(); err != nil {
			return repResult{}, err
		}
	}
	sim, err := tb.Simulate(w.offered, w.cfg)
	if err != nil {
		return repResult{}, err
	}
	return w.judge(tb, sim, w.cfg), nil
}

// judge checks one Simulate's outputs and folds them into a repResult.
func (w *simWorkload) judge(tb *runtime.Testbed, sim *runtime.SimResult, cfg runtime.SimConfig) repResult {
	var r repResult
	r.attempted = 1
	in := tb.D.Input
	frameBits := in.FrameBitsOrDefault()
	// Packets still parked when the run ends are neither egressed nor
	// dropped; a queue holds at most QueueCap of them.
	maxParked := cfg.QueueCap * subgroupCount(tb.D)
	met := 0
	for ci := range sim.Injected {
		inj, egr := sim.Injected[ci], sim.Egressed[ci]
		dropped := int(math.Round(sim.DropRate[ci] * float64(inj)))
		if parked := inj - egr - dropped; parked < 0 || parked > maxParked {
			r.fail("chain %d: packets not conserved: injected %d, egressed %d, dropped %d", ci, inj, egr, dropped)
		}
		if want := float64(egr) * frameBits * cfg.Scale / cfg.DurationSec; math.Abs(sim.AchievedBps[ci]-want) > 1e-6*want+1 {
			r.fail("chain %d: achieved %.0f bps does not match %d egressed packets", ci, sim.AchievedBps[ci], egr)
		}
		r.work += float64(inj)
		r.gbps += sim.AchievedBps[ci] / 1e9
		if sim.Failover != nil {
			// After a fault plan, the verdict is on the window that
			// follows the last fault effect.
			if sim.Failover.PostSLOCompliant[ci] {
				met++
			}
			continue
		}
		want := w.offered[ci]
		if tmin := in.Chains[ci].Chain.SLO.TMinBps; tmin > 0 && tmin < want {
			want = tmin
		}
		if sim.AchievedBps[ci] >= 0.9*want {
			met++
		}
	}
	r.sloMet = float64(met) / float64(len(sim.Injected))
	r.digest = digestOf(sim)
	return r
}

// subgroupCount counts the bess subgroups of a deployment.
func subgroupCount(d *metacompiler.Deployment) int {
	n := 0
	for _, pl := range d.Pipelines {
		n += len(pl.Subgroups())
	}
	return n
}

func (w *simWorkload) close() {}

// buildGraphs parses spec text and builds the chain graphs, under spans
// when traced.
func buildGraphs(text string, tr *tracer) ([]*nfgraph.Graph, error) {
	tr.begin("nfspec.parse")
	chains, err := nfspec.Parse(text)
	tr.end()
	if err != nil {
		return nil, err
	}
	graphs := make([]*nfgraph.Graph, len(chains))
	for i, c := range chains {
		tr.begin("nfgraph.build")
		graphs[i], err = nfgraph.Build(c)
		tr.end()
		if err != nil {
			return nil, err
		}
	}
	return graphs, nil
}
