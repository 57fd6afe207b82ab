package runtime

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"

	"lemur/internal/bess"
	"lemur/internal/metacompiler"
	"lemur/internal/nf"
	"lemur/internal/nfgraph"
	"lemur/internal/obs"
	"lemur/internal/packet"
)

// simShard is one worker's private slice of a simulation run: its own NF
// environment (with a per-shard rng stream), switch decode scratch, packet
// freelist and frame-buffer pool, and the primary entries and chain slots
// it owns. A serial run is the same thing with one shard owning everything.
type simShard struct {
	id      int
	env     *nf.Env
	scratch packet.Packet

	simSpares

	prims  []int32
	chains []int32

	// drain is the order stepShard sweeps the owned subgroup queues in:
	// prims itself for deadline-free (or forced round-robin) runs, an EDF
	// permutation of it when resident subgroups carry deadline slacks.
	// Rebuilt by refreshDrainOrder after every prims reassignment.
	drain []int32
}

// simSpares are a shard's free lists: packets and frame buffers not in
// flight. A Testbed keeps one per shard index between runs — per index, not
// pooled, so that a two-shard run's second shard finds its own set again
// and neither list outgrows what its shard ever had in flight.
type simSpares struct {
	freePkts []*simPacket
	freeBufs [][]byte
}

func (sh *simShard) getPkt() *simPacket {
	if n := len(sh.freePkts); n > 0 {
		p := sh.freePkts[n-1]
		sh.freePkts = sh.freePkts[:n-1]
		return p
	}
	return &simPacket{}
}

func (sh *simShard) putPkt(p *simPacket) {
	p.frame = nil
	sh.freePkts = append(sh.freePkts, p)
}

func (sh *simShard) getBuf() []byte {
	if n := len(sh.freeBufs); n > 0 {
		b := sh.freeBufs[n-1]
		sh.freeBufs = sh.freeBufs[:n-1]
		return b
	}
	return nil
}

func (sh *simShard) putBuf(b []byte) {
	if cap(b) > 0 {
		sh.freeBufs = append(sh.freeBufs, b[:0])
	}
}

// adopt makes next the walk's current frame. Every hop returns a slice of
// the buffer it was given (see DESIGN.md, "Packet freelist + pooled frame
// buffers"), so next aliases frame; the base-pointer check catches a hop
// that had to fall back to a copy — a frame without packet.TailRoom behind
// it — and retires the orphaned buffer to the pool.
func (sh *simShard) adopt(frame, next []byte) []byte {
	if &next[0] != &frame[0] {
		sh.putBuf(frame)
	}
	return next
}

// simEngine is the state of one Simulate run, shared by its shards. Fields
// a shard touches during an epoch are either read-only for the epoch,
// indexed by an entry or chain slot the shard owns, or (the ToR switch)
// internally atomic, so shards need no locks between epoch barriers.
type simEngine struct {
	tb  *Testbed
	cfg *SimConfig
	ix  *simIndex
	rc  *reconfCtx
	rng *rand.Rand

	offered []float64
	gens    []frameSource
	// blind marks the chains no NF of which reads the payload: their
	// frames are emitted headers only (see readsPayload).
	blind []bool

	cost, budget, credit []float64
	rings                []packetRing
	stepCredit           []float64

	res        *SimResult
	dropped    []int
	queueDelay []float64
	tails      []delayTail
	acc        []float64
	frameBits  float64
	steps      int
	epochs     int  // epochs run so far; read by the epoch-contract tests
	edf        bool // deadline slacks order the drain sweep (see simedf.go)

	qDepthH, qDelayH []*obs.Histogram
	coreUtilH        [][]*obs.Histogram
	injC, egrC, drpC []*obs.Counter

	part   *simPartition
	shards []*simShard
}

// addChains extends every per-chain array by one slot per rate: the whole
// chain set at the start of a run (reqSec < 0), an admitted chain mid-run
// (reqSec and landSec are its admission request and landing times). The
// new slots take the next indices of the deployment's chain list.
func (eng *simEngine) addChains(rates []float64, reqSec, landSec float64) error {
	cfg, res, n := eng.cfg, eng.res, len(rates)
	for i, rate := range rates {
		ci := len(eng.offered) + i
		g := eng.tb.D.Input.Chains[ci]
		gen, err := eng.tb.newChainGen(g.Chain.Aggregate, ci, cfg)
		if err != nil {
			return err
		}
		eng.gens = append(eng.gens, gen)
		eng.blind = append(eng.blind, !readsPayload(g))
		// A chain injects at most its per-step arrival increment (the one
		// stepShard adds) times the run's steps: its rate only ever drops,
		// to 0 at a retirement. One packet of slack covers the rounding of
		// the accumulated increments.
		bound := 1
		if most := rate / eng.frameBits / cfg.Scale * cfg.StepSec * float64(eng.steps); most > 0 {
			bound += int(math.Ceil(most))
		}
		eng.tails = append(eng.tails, newDelayTail(bound, metacompiler.EffectiveDeadlineSec(g)))
		eng.rc.addChain(reqSec, landSec)
	}
	eng.offered = append(eng.offered, rates...)
	res.OfferedBps = append(res.OfferedBps, rates...)
	res.AchievedBps = grown(res.AchievedBps, n)
	res.DropRate = grown(res.DropRate, n)
	res.AvgQueueDelaySec = grown(res.AvgQueueDelaySec, n)
	res.Injected = grown(res.Injected, n)
	res.Egressed = grown(res.Egressed, n)
	eng.dropped = grown(eng.dropped, n)
	eng.queueDelay = grown(eng.queueDelay, n)
	eng.acc = grown(eng.acc, n) // fractional arrival accumulators
	return nil
}

// readsPayload reports whether any NF of g reads a payload byte
// (nf.Meta.ReadsPayload). A chain without one gets its frames from
// frameSource.HeadersInto: its payload bytes are unspecified, while its
// headers, lengths and the generator's rng draws are NextInto's.
func readsPayload(g *nfgraph.Graph) bool {
	for _, n := range g.Order {
		if n.Meta.ReadsPayload {
			return true
		}
	}
	return false
}

// grown returns s extended by n zero slots. Never nil, so an empty chain
// set still encodes as [] rather than null.
func grown[T any](s []T, n int) []T {
	if s == nil {
		return make([]T, n)
	}
	return append(s, make([]T, n)...)
}

// partition (re)assigns entries, chains and NICs to shards for the current
// steering graph and re-hoists the metric handles onto their owners. The
// first call fixes the run's shard count — one for Workers <= 1, else
// min(Workers, components); later calls (after a mid-run rewire) re-pack
// onto the same shards and leave any surplus ones idle.
func (eng *simEngine) partition() {
	workers := eng.cfg.Workers
	if eng.shards != nil {
		workers = len(eng.shards)
	}
	eng.part = buildSimPartition(eng.tb.D, eng.ix, len(eng.offered), workers)
	if eng.shards == nil {
		eng.newShards(eng.part.workers)
	}
	for i, sh := range eng.shards {
		sh.prims, sh.chains = nil, nil
		if i < eng.part.workers {
			sh.prims, sh.chains = eng.part.prims[i], eng.part.chains[i]
		}
	}
	eng.hoist()
}

// newShards creates the run's worker shards, each starting with the spares
// the Testbed kept for its index (handed back by finish).
func (eng *simEngine) newShards(n int) {
	tb := eng.tb
	if n > len(tb.spares) {
		tb.spares = grown(tb.spares, n-len(tb.spares))
	}
	eng.shards = make([]*simShard, n)
	for i := range eng.shards {
		// No NF reads Env.Rand, so no shard gets a source.
		eng.shards[i] = &simShard{id: i, simSpares: tb.spares[i], env: &nf.Env{}}
		tb.spares[i] = simSpares{}
	}
}

// hoist (re)builds the per-subgroup, per-core and per-chain metric handles
// on the default registry, so the step loop pays one atomic branch per
// observation. Every hoisted series is observed by one shard at a time — its
// owner under the current partition — and ownership only changes in a serial
// section, so a series sees the serial run's observations in the serial
// run's order at any worker count. Subgroup handle slices are indexed in
// primaries (sorted) order, keeping observation order — and therefore
// histogram float sums — deterministic for a fixed seed. It is the single
// choke point after every shard (re)assignment, so it also refreshes the
// per-shard EDF drain order (see refreshDrainOrder).
func (eng *simEngine) hoist() {
	ix, nChains := eng.ix, len(eng.offered)
	eng.qDepthH = make([]*obs.Histogram, ix.nPrimary)
	eng.qDelayH = make([]*obs.Histogram, ix.nPrimary)
	eng.coreUtilH = make([][]*obs.Histogram, ix.nPrimary)
	for i := 0; i < ix.nPrimary; i++ {
		psg := ix.entries[i].psg
		eng.qDepthH[i] = obs.H("lemur_sim_queue_depth", obs.L("subgroup", psg.Name()))
		eng.qDelayH[i] = obs.H("lemur_sim_queue_delay_seconds", obs.L("subgroup", psg.Name()))
		for _, cs := range eng.tb.D.Shares[psg] {
			eng.coreUtilH[i] = append(eng.coreUtilH[i], obs.H("lemur_bess_core_utilization",
				obs.L("server", psg.Server), obs.L("core", strconv.Itoa(cs.Core))))
		}
	}
	eng.injC = make([]*obs.Counter, nChains)
	eng.egrC = make([]*obs.Counter, nChains)
	eng.drpC = make([]*obs.Counter, nChains)
	for ci := 0; ci < nChains; ci++ {
		lbl := obs.L("chain", strconv.Itoa(ci))
		eng.injC[ci] = obs.C("lemur_sim_injected_total", lbl)
		eng.egrC[ci] = obs.C("lemur_sim_egressed_total", lbl)
		eng.drpC[ci] = obs.C("lemur_sim_dropped_total", lbl)
	}
	eng.refreshDrainOrder()
}

// egress/die finalize a packet and recycle its arena resources into the
// executing shard's pools.
func (eng *simEngine) egress(sh *simShard, p *simPacket, frame []byte) {
	eng.res.Egressed[p.chain]++
	eng.egrC[p.chain].Inc()
	eng.queueDelay[p.chain] += p.queuedSec
	eng.tails[p.chain].add(p.queuedSec)
	sh.putBuf(frame)
	sh.putPkt(p)
}

func (eng *simEngine) die(sh *simShard, p *simPacket, frame []byte) {
	eng.dropped[p.chain]++
	eng.drpC[p.chain].Inc()
	sh.putBuf(frame)
	sh.putPkt(p)
}

// advance walks a packet to its next decision (see Testbed.hop) — from the
// switch, or from the subgroup of pipeline at it was parked on — and books
// the outcome. A park with its subgroup's queue full is a drop, and so is a
// blackhole, which the reconfiguration report counts too.
func (eng *simEngine) advance(sh *simShard, p *simPacket, at *bess.Pipeline, now float64) error {
	frame, end, idx, _, err := eng.tb.hop(eng, sh, p.chain, at, p.frame)
	if err != nil {
		return err
	}
	switch end {
	case hopEgress:
		eng.egress(sh, p, frame)
	case hopPark:
		if r := &eng.rings[idx]; r.n < eng.cfg.QueueCap {
			p.frame, p.enqueuedSec = frame, now
			r.push(p, eng.cfg.QueueCap)
			return nil
		}
		eng.die(sh, p, frame)
	case hopBlackhole:
		eng.rc.chains[p.chain].drops++
		eng.die(sh, p, frame)
	default:
		eng.die(sh, p, frame)
	}
	return nil
}

// stepShard runs one simulated step restricted to the shard's owned
// primaries and chains, in the serial schedule's exact order: credit refill,
// queue drains (FIFO, oldest wait times retained, one subgroup's backlog
// served back-to-back so its pipeline and NF state stay hot), new
// arrivals in per-chain bursts over pooled buffers, then per-core
// utilization. The drain sweep walks sh.drain — index order normally, the
// EDF slack order when deadlines are present — while every other loop
// keeps index order. With one shard owning everything this IS the serial
// step; with many, each shard executes the serial schedule's restriction
// to its components, which touch disjoint state.
func (eng *simEngine) stepShard(sh *simShard, now float64) error {
	cfg := eng.cfg
	sh.env.NowSec = now
	// Credits carry over between steps (bounded to two quanta) so service
	// capacity is not floored to whole packets per step; stepCredit keeps
	// the step-start value to derive how much of the budget this step spent.
	for _, pi := range sh.prims {
		c := eng.credit[pi] + eng.budget[pi]
		if max := 2 * eng.budget[pi]; c > max {
			c = max
		}
		eng.credit[pi] = c
		eng.stepCredit[pi] = c
	}
	for _, pi := range sh.drain {
		r := &eng.rings[pi]
		eng.qDepthH[pi].Observe(float64(r.n))
		if r.n == 0 {
			continue
		}
		pl := eng.ix.entries[pi].pipe
		c := eng.cost[pi]
		n0 := r.n
		served := 0
		for k := 0; k < n0; k++ {
			if eng.credit[pi] < c {
				break
			}
			eng.credit[pi] -= c
			p := r.at(k)
			p.queuedSec += now - p.enqueuedSec // actual wait since this park
			if cfg.debugCheckDelays && p.queuedSec > now-p.bornSec+1e-9 {
				return fmt.Errorf("runtime: queue delay %.9f exceeds packet lifetime %.9f",
					p.queuedSec, now-p.bornSec)
			}
			eng.qDelayH[pi].Observe(p.queuedSec)
			served++
			if err := eng.advance(sh, p, pl, now); err != nil {
				return err
			}
		}
		r.popServed(served)
	}
	for _, ci := range sh.chains {
		eng.acc[ci] += eng.offered[ci] / eng.frameBits / cfg.Scale * cfg.StepSec
		for eng.acc[ci] >= 1 {
			eng.acc[ci]--
			var frame []byte
			if eng.blind[ci] {
				frame = eng.gens[ci].HeadersInto(sh.getBuf(), now)
			} else {
				frame = eng.gens[ci].NextInto(sh.getBuf(), now)
			}
			eng.res.Injected[ci]++
			eng.injC[ci].Inc()
			p := sh.getPkt()
			p.chain, p.frame, p.bornSec, p.queuedSec = int(ci), frame, now, 0
			if err := eng.advance(sh, p, nil, now); err != nil {
				return err
			}
		}
	}
	// Per-core cycle-budget utilization this step: the fraction of the
	// step's credit (budget plus bounded carry-over) actually consumed.
	// Cores of one subgroup share uniformly, so they record the same value.
	for _, pi := range sh.prims {
		if eng.stepCredit[pi] <= 0 {
			continue
		}
		util := (eng.stepCredit[pi] - eng.credit[pi]) / eng.stepCredit[pi]
		for _, h := range eng.coreUtilH[pi] {
			h.Observe(util)
		}
	}
	return nil
}

// run is the one driver: a loop over event-bounded epochs. Each epoch opens
// with a serial section — applyDue fires and lands whatever the plan has
// due at this step, which may rewire steering and re-partition the shards —
// and then every shard executes all steps up to the next boundary, the
// first step at which the serial section can have work again (see
// reconfCtx.nextBoundary). Within an epoch shards share no mutable state
// and each runs the serial schedule restricted to what it owns, so running
// them free between boundaries yields the serial result. An empty plan is
// one epoch; one shard runs inline, several get a goroutine each per epoch.
func (eng *simEngine) run() error {
	stepSec := eng.cfg.StepSec
	errs := make([]error, len(eng.shards))
	for step := 0; step < eng.steps; {
		if err := eng.applyDue(float64(step) * stepSec); err != nil {
			return err
		}
		end := eng.rc.nextBoundary(step, eng.steps, stepSec)
		eng.epochs++
		if len(eng.shards) == 1 {
			errs[0] = eng.runSteps(eng.shards[0], step, end)
		} else {
			var wg sync.WaitGroup
			for i, sh := range eng.shards {
				if len(sh.prims) == 0 && len(sh.chains) == 0 {
					continue
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = eng.runSteps(sh, step, end)
				}()
			}
			wg.Wait()
		}
		// The lowest shard's error wins, keeping even the failure mode
		// deterministic.
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		eng.rc.noteFirstEgress(float64(end-1)*stepSec+stepSec, eng.res.Egressed)
		step = end
	}
	return nil
}

// runSteps executes steps [from, to) of one shard.
func (eng *simEngine) runSteps(sh *simShard, from, to int) error {
	for step := from; step < to; step++ {
		if err := eng.stepShard(sh, float64(step)*eng.cfg.StepSec); err != nil {
			return err
		}
	}
	return nil
}
