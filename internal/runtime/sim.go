package runtime

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"lemur/internal/chaos"
	"lemur/internal/nfgraph"
	"lemur/internal/placer"
)

// The analytic Measure covers steady-state rates; Simulate is the
// discrete-time counterpart: real frames arrive at (down-scaled) offered
// rates, queue at server subgroups whose cores have finite per-step cycle
// budgets, overflow into drops, and accumulate queueing latency. It shows
// the dynamics the LP cannot — queue growth at overload, drop onset, and
// latency inflation — and doubles as a stress test of the steering fabric.
//
// Simulate is the batched, arena-backed fast engine: dense integer subgroup
// indexing (simIndex), a simPacket freelist with pooled frame buffers
// recycled through egress/drop, ring-buffer subgroup queues, and in-place
// NSH encap/decap on every hop. Its output is byte-identical to the
// per-packet reference engine the in-package property tests carry
// (simulateReference, sim_reference_test.go) for a fixed seed — same rng
// draw order, same histogram observation order.

// SimConfig parameterizes a simulation run.
type SimConfig struct {
	// DurationSec of simulated time (default 0.2).
	DurationSec float64
	// StepSec is the scheduler quantum (default 1 ms).
	StepSec float64
	// Scale divides offered rates and core budgets so packet counts stay
	// tractable (default 2000: 30 Gbps ≈ 1.5 kpps simulated).
	Scale float64
	// QueueCap bounds each subgroup's input queue in packets (default 256).
	QueueCap int
	Seed     int64

	// SchedPolicy selects the queue-drain discipline. "" (the default) and
	// SchedEDF drain earliest-deadline-first by the metacompiler's subgroup
	// slacks whenever a chain carries a delay SLO — with no deadlines both
	// degenerate to the legacy order, byte-identical to pre-EDF runs.
	// SchedRR forces round-robin even with deadlines (the baseline arm of
	// the latency experiments). Anything else is an error.
	SchedPolicy string

	// Workers splits the run across worker goroutines that own disjoint
	// connected components of the chain↔device steering graph (see
	// buildSimPartition). The result — SimResult and metrics snapshot — is
	// byte-identical at any value: 0 and 1 run one shard inline, larger
	// values are capped at the deployment's component count. Negative is
	// an error.
	Workers int

	// FlowScale, when positive, replaces each chain's default 40-flow
	// incremental generator with an arena-backed pre-generated schedule of
	// FlowScale concurrent flows (trafficgen.ScheduleInto), sized for
	// million-flow state-table experiments. 0 keeps the legacy generator
	// and is byte-identical to pre-FlowScale runs.
	FlowScale int
	// FlowChurn switches the FlowScale schedule from immortal flows to a
	// churn model: flows live trafficgen's default lifetime (1 s) and
	// arrive at FlowScale per second, holding the live population at
	// FlowScale while every flow is new state for the NF tables. Requires
	// FlowScale > 0.
	FlowChurn bool

	// Faults is an optional deterministic reconfiguration schedule: fault
	// events or churn events, not both in one run. Crashes drop the dead
	// device's in-flight packets, blackhole traffic steered at it during the
	// detection+reconfiguration window, then trigger an incremental
	// re-placement (placer.Reconfigure) and steering rewire
	// (Deployment.Apply) mid-run; degrade and overload rescale budgets and
	// costs on the spot. Admissions and retirements land after the same
	// window through the same two calls (only pin-preserving verdicts are
	// applied; full-repack answers are recorded as rejections); a
	// retirement stops the chain's offered load at the request and reclaims
	// its resources at the landing. A nil or empty plan schedules nothing:
	// the run is byte-identical to one without the field.
	Faults *chaos.Plan
	// ChurnCatalog resolves admit events' chain names to pre-built NF
	// graphs. Every admit target in Faults must be present.
	ChurnCatalog map[string]*nfgraph.Graph

	// debugCheckDelays makes the engine fail if a packet's accumulated
	// queue wait ever exceeds its total lifetime — the invariant the
	// per-park accounting restores. Test-only.
	debugCheckDelays bool
}

func (c *SimConfig) defaults() {
	if c.DurationSec <= 0 {
		c.DurationSec = 0.2
	}
	if c.StepSec <= 0 {
		c.StepSec = 1e-3
	}
	if c.Scale <= 0 {
		c.Scale = 2000
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
}

// SimResult reports per-chain dynamics. Rates are bits/sec, delays are
// seconds of simulated time. Deterministic: the same deployment, offered
// vector, and SimConfig (seed included) always produce a byte-identical
// SimResult.
type SimResult struct {
	OfferedBps  []float64
	AchievedBps []float64 // egressed goodput, rescaled
	DropRate    []float64 // dropped / injected
	// AvgQueueDelaySec is the mean time packets spent queued at subgroups;
	// P99QueueDelaySec is the 99th percentile over egressed packets.
	AvgQueueDelaySec []float64
	P99QueueDelaySec []float64
	Injected         []int
	Egressed         []int

	// DeadlineCompliance is the per-chain fraction of egressed packets
	// whose accumulated queue wait fit inside the chain's effective
	// deadline (d_max, else d_max_p99); chains without a deadline report 1.
	// Nil — and absent from the JSON encoding — when no chain carries a
	// deadline, keeping deadline-free output byte-identical to pre-EDF runs.
	DeadlineCompliance []float64 `json:",omitempty"`

	// Failover carries the fault-injection outcome; nil unless the run's
	// plan holds fault events.
	Failover *FailoverReport `json:",omitempty"`

	// Churn carries the chain-churn outcome; nil unless the run's plan
	// holds admit or retire events. Per-chain slices in the main
	// result (and here) are indexed by final chain slot: chains admitted
	// mid-run occupy the appended tail, retired chains keep their slot.
	Churn *ChurnReport `json:",omitempty"`
}

// simPacket is one in-flight packet.
type simPacket struct {
	chain       int
	frame       []byte
	bornSec     float64
	queuedSec   float64 // accumulated queue wait across parks
	enqueuedSec float64 // time of the current park (valid while queued)
}

// packetRing is a FIFO of parked packets. Its count includes packets being
// served in the current drain until popServed removes them, mirroring the
// reference engine's deferred prefix removal — overflow decisions during a
// drain must see the in-service packets. It starts without a buffer and
// grows to the occupancy its subgroup reaches: most subgroups never park a
// packet, and a QueueCap-long ring for each would be most of a short run's
// set-up.
type packetRing struct {
	buf  []*simPacket
	head int
	n    int
}

// minRing is the first buffer a ring allocates.
const minRing = 16

func (r *packetRing) at(i int) *simPacket { return r.buf[(r.head+i)%len(r.buf)] }

// push appends p, doubling the buffer when it is full (from minRing, never
// past limit, the queue cap the caller has checked r.n against).
func (r *packetRing) push(p *simPacket, limit int) {
	if r.n == len(r.buf) {
		buf := make([]*simPacket, min(max(2*len(r.buf), minRing), limit))
		for i := 0; i < r.n; i++ {
			buf[i] = r.at(i)
		}
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = p
	r.n++
}

func (r *packetRing) popServed(served int) {
	if served == 0 {
		return
	}
	for i := 0; i < served; i++ {
		r.buf[(r.head+i)%len(r.buf)] = nil
	}
	r.head = (r.head + served) % len(r.buf)
	r.n -= served
}

// Simulate runs the discrete-time simulation with the given offered rates.
// The steering graph's connected components are partitioned across up to
// cfg.Workers shards (simengine.go) and each shard executes the serial
// schedule restricted to its components, which is byte-identical to the
// one-shard run — the in-package property tests enforce this against the
// reference engine at several worker counts.
func (tb *Testbed) Simulate(offered []float64, cfg SimConfig) (*SimResult, error) {
	eng, err := tb.newSimEngine(offered, cfg)
	if err != nil {
		return nil, err
	}
	if err := eng.run(); err != nil {
		return nil, err
	}
	return eng.finish()
}

// newSimEngine validates the config and builds a run's engine, ready to
// run: generators and per-chain arrays sized, costs drawn, shards
// partitioned.
func (tb *Testbed) newSimEngine(offered []float64, cfg SimConfig) (*simEngine, error) {
	cfg.defaults()
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("runtime: negative sim worker count %d", cfg.Workers)
	}
	if cfg.FlowScale < 0 {
		return nil, fmt.Errorf("runtime: negative flow scale %d", cfg.FlowScale)
	}
	edf, err := cfg.schedEDF()
	if err != nil {
		return nil, err
	}
	in := tb.D.Input
	if len(offered) != len(in.Chains) {
		return nil, fmt.Errorf("runtime: offered %d rates for %d chains", len(offered), len(in.Chains))
	}
	for ci, r := range offered {
		// An infinite rate would inject forever; it also has no bound to
		// size a delayTail by.
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("runtime: offered rate %v of chain %d is not finite", r, ci)
		}
	}
	ix, err := tb.simIndexLazy()
	if err != nil {
		return nil, err
	}
	rc, err := newReconfCtx(tb, &cfg)
	if err != nil {
		return nil, err
	}
	eng := &simEngine{
		tb: tb, cfg: &cfg, ix: &simIndex{}, rc: rc, res: &SimResult{}, edf: edf,
		rng:       rand.New(rand.NewSource(cfg.Seed*17 + 3)),
		frameBits: placer.DefaultFrameBits,
		// Rounded, not truncated: 0.35 s of 1 ms steps is 350 steps, though
		// 0.35/0.001 is 349.99999999999994 in floating point.
		steps: int(math.Round(cfg.DurationSec / cfg.StepSec)),
	}
	// The engine owns its offered vector: retirements zero slots and
	// admissions append, and the caller's slice is never mutated.
	if err := eng.addChains(offered, -1, -1); err != nil {
		return nil, err
	}
	eng.install(ix)
	return eng, nil
}

// finish folds the run's accumulators into its SimResult.
func (eng *simEngine) finish() (*SimResult, error) {
	tb, cfg, res := eng.tb, eng.cfg, eng.res
	eng.rc.finalize(eng)
	tb.syncStateGauges()
	res.P99QueueDelaySec = make([]float64, len(eng.offered))
	for ci := range eng.offered { // admissions may have grown the chain set
		if res.Injected[ci] > 0 {
			res.DropRate[ci] = float64(eng.dropped[ci]) / float64(res.Injected[ci])
		}
		res.AchievedBps[ci] = float64(res.Egressed[ci]) * eng.frameBits * cfg.Scale / cfg.DurationSec
		if n := res.Egressed[ci]; n > 0 {
			res.AvgQueueDelaySec[ci] = eng.queueDelay[ci] / float64(n)
			p99, err := eng.tails[ci].p99()
			if err != nil {
				return nil, fmt.Errorf("runtime: chain %d: %w", ci, err)
			}
			res.P99QueueDelaySec[ci] = p99
		}
	}
	res.DeadlineCompliance = deadlineCompliance(eng.tails)
	eng.handBack()
	return res, nil
}

// handBack returns every packet and frame buffer of the run to the Testbed,
// shard by shard, for the next run: the shards' free lists plus the packets
// still parked in the rings, each to the shard that owns its ring (the lists
// grow once, to fit: a run that ends overloaded parks thousands). The engine
// is spent afterwards.
func (eng *simEngine) handBack() {
	owner := eng.part.ownerOfEntry
	parked := make([]int, len(eng.shards))
	for i := range eng.rings {
		parked[owner[i]] += eng.rings[i].n
	}
	for i, sh := range eng.shards {
		sh.freePkts = slices.Grow(sh.freePkts, parked[i])
		sh.freeBufs = slices.Grow(sh.freeBufs, parked[i])
	}
	for i := range eng.rings {
		r, sh := &eng.rings[i], eng.shards[owner[i]]
		for k := 0; k < r.n; k++ {
			p := r.at(k)
			sh.putBuf(p.frame)
			sh.putPkt(p)
		}
	}
	for i, sh := range eng.shards {
		eng.tb.spares[i], sh.simSpares = sh.simSpares, simSpares{}
	}
}
