package main

import (
	"fmt"
	"io"
	"math"
	goruntime "runtime"
	"time"

	"lemur/internal/chaos"
	"lemur/internal/experiments"
	"lemur/internal/metacompiler"
	"lemur/internal/obs"
	"lemur/internal/packet"
	"lemur/internal/runtime"
	"lemur/internal/trafficgen"
)

// timedSim is one Simulate with its wall time and heap traffic.
type timedSim struct {
	rep   repResult
	sim   *runtime.SimResult
	ms    float64
	bytes uint64
}

// simulate runs cfg once, on the warm deployment if the workload reuses one
// and fresh is false, and judges the result.
func (w *simWorkload) simulate(cfg runtime.SimConfig, fresh bool) (timedSim, error) {
	tb := w.warm
	if fresh || tb == nil {
		var err error
		if tb, err = w.testbed(); err != nil {
			return timedSim{}, err
		}
	}
	goruntime.GC()
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	t0 := time.Now()
	sim, err := tb.Simulate(w.offered, cfg)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return timedSim{}, err
	}
	goruntime.ReadMemStats(&m1)
	return timedSim{rep: w.judge(tb, sim, cfg), sim: sim, ms: ms, bytes: m1.TotalAlloc - m0.TotalAlloc}, nil
}

// replicaPass is the faster of two traced replica runs, with the state
// tables' contents before and after it.
type replicaPass struct {
	fp            framePath
	tr            *tracer
	before, after []experiments.NFTableState
	// plainWall is the faster of two untraced runs of the same replica.
	plainWall time.Duration
}

// replicaPasses runs the replica untraced (plain runs, the first of them
// discarded) and traced (two), each on a deployment in the state the workload's
// repetitions find theirs in: one warm deployment throughout if the workload
// reuses its own, a fresh one per run otherwise. The faster run of each pair
// counts.
func (w *simWorkload) replicaPasses(cfg runtime.SimConfig, frameBytes, plain int) (replicaPass, error) {
	var best replicaPass
	var d *metacompiler.Deployment
	var slots []nfSlot
	next := func() (err error) {
		if d == nil || !w.spec.reuse {
			d, err = metacompiler.Compile(w.in, w.res)
			slots = nil
		}
		return err
	}
	for i := 0; i < plain; i++ {
		if err := next(); err != nil {
			return best, err
		}
		run, err := w.replica(d, cfg, frameBytes, nil)
		if err != nil {
			return best, err
		}
		if i == 1 || (i > 1 && run.wall < best.plainWall) {
			best.plainWall = run.wall
		}
	}
	for i := 0; i < 2; i++ {
		if err := next(); err != nil {
			return best, err
		}
		if slots == nil {
			slots = wrapNFs(d)
		}
		before := harvest(d, slots)
		tr := newTracer(w.spec.name)
		fp, err := w.tracedReplica(d, slots, cfg, frameBytes, tr)
		if err != nil {
			return best, err
		}
		if i == 0 || fp.run.wall < best.fp.run.wall {
			best.fp, best.tr, best.before, best.after = fp, tr, before, harvest(d, slots)
		}
	}
	return best, nil
}

func (w *simWorkload) traced(tr *tracer, out io.Writer) (map[string]float64, checks, error) {
	var c checks
	layers := map[string]float64{}
	cfg := w.cfg

	// Reference repetitions of the workload's own configuration, untraced,
	// run between the replica's passes and not before them: the box's speed
	// drifts by tens of percent over tens of seconds, and the pass compares
	// the two. The fastest run of a kind counts throughout this pass,
	// because interference only ever adds time.
	var ref timedSim
	refMs := math.Inf(1)
	reference := func() error {
		ts, err := w.simulate(cfg, false)
		if err != nil {
			return err
		}
		c.add(ts.rep.checks)
		if ts.ms < refMs {
			ref, refMs = ts, ts.ms
		}
		return nil
	}
	if err := reference(); err != nil {
		return nil, c, err
	}
	// The replica at the default frame size, whose spans are the trace.
	pass, err := w.replicaPasses(cfg, trafficgen.DefaultFrameBytes, 3)
	if err != nil {
		return nil, c, err
	}
	if err := reference(); err != nil {
		return nil, c, err
	}
	// The smallest frame, where per-packet fixed cost is all there is. No
	// overhead ratio is taken here; one untraced run warms a reused
	// deployment's tables.
	warm := 0
	if w.spec.reuse {
		warm = 1
	}
	small, err := w.replicaPasses(cfg, 64, warm)
	if err != nil {
		return nil, c, err
	}
	if err := reference(); err != nil {
		return nil, c, err
	}
	pkts := ref.rep.work
	simNsPerPkt := refMs * 1e6 / pkts
	steps := math.Round(cfg.DurationSec / cfg.StepSec)
	layers["runtime.steps"] = steps
	layers["runtime.pkts_per_step"] = pkts / steps
	layers["runtime.bytes_per_pkt"] = float64(ref.bytes) / pkts
	layers["runtime.cold_run_ratio"] = w.coldMs / refMs
	injected, dropped, p99 := 0.0, 0.0, 0.0
	for ci, inj := range ref.sim.Injected {
		injected += float64(inj)
		dropped += ref.sim.DropRate[ci] * float64(inj)
		p99 = math.Max(p99, ref.sim.P99QueueDelaySec[ci])
	}
	layers["runtime.sim_drop_ratio"] = dropped / injected
	layers["runtime.sim_p99_queue_delay_us"] = p99 * 1e6

	// One worker against two, on fresh deployments: the results must be
	// byte-identical, and the time ratio is the engine's parallel gain.
	pair := func(cfg runtime.SimConfig) (ratio float64, err error) {
		var ms [2]float64
		var digest [2]string
		for i, workers := range []int{1, 2} {
			cfg.Workers = workers
			ts, err := w.simulate(cfg, true)
			if err != nil {
				return 0, err
			}
			c.add(ts.rep.checks)
			ms[i], digest[i] = ts.ms, ts.rep.digest
		}
		if digest[0] != digest[1] {
			c.fail("SimResult with Workers=2 differs from Workers=1 (faults: %v)", cfg.Faults != nil)
		}
		return ms[0] / ms[1], nil
	}
	free := cfg
	free.Faults = nil
	if layers["runtime.parallel_speedup"], err = pair(free); err != nil {
		return nil, c, err
	}
	if cfg.Faults != nil {
		speedup, err := pair(cfg)
		if err != nil {
			return nil, c, err
		}
		layers["runtime.epoch_slowdown_ratio"] = 1 / speedup
	}

	// The same repetition with the metrics registry on.
	obs.Enable()
	on, err := w.simulate(cfg, false)
	obs.Disable()
	obs.Reset()
	if err != nil {
		return nil, c, err
	}
	c.add(on.rep.checks)
	layers["obs.on_overhead_ratio"] = on.ms / refMs

	fp := pass.fp
	tr.adopt(pass.tr)
	layers["trace.overhead_ratio"] = fp.run.wall.Seconds() / pass.plainWall.Seconds()
	fp.framePathMetrics("1530", layers)
	rp := float64(fp.run.pkts)
	layers["pisa.hops_per_pkt"] = float64(fp.run.hops["pisa"]) / rp
	layers["bess.hops_per_pkt"] = float64(fp.run.hops["bess"]) / rp
	layers["smartnic.hops_per_pkt"] = float64(fp.run.hops["smartnic"]) / rp
	nfTotal := 0.0
	for class, ns := range fp.nfNs {
		if calls := fp.nfCall[class]; calls > 0 {
			layers["nf."+class+".ns_per_pkt"] = ns / float64(calls)
		}
		nfTotal += ns
	}
	stateMetrics(pass.before, pass.after, fp, layers)

	small.fp.framePathMetrics("64", layers)
	if w.spec.name == simFrame {
		for _, size := range []int{64, trafficgen.DefaultFrameBytes} {
			ns, err := openflowNs(size)
			if err != nil {
				return nil, c, err
			}
			layers[fmt.Sprintf("openflow.ns_per_pkt_%d", size)] = ns
		}
	}

	// Attribution: Simulate's cost for the replica's packets is the total;
	// the replica's layers are measured; the rest is the engine. When the
	// replica's devices cost more than all of Simulate (noise, or a cache
	// that served Simulate's one frame better than the replica's batch),
	// the engine's share is below what this pass resolves and reads 0.
	engine := math.Max(0, simNsPerPkt*rp-fp.deviceNs())
	total := fp.deviceNs() + engine
	layers["runtime.self_ns_per_pkt"] = engine / rp
	layers["nf.body_share"] = nfTotal / total
	rows, _ := tr.attribution()
	for layer, ns := range fp.self {
		if r := rows[layer]; r != nil {
			r.SelfNs = ns
		}
	}
	for class, ns := range fp.nfNs {
		carve(rows, "", "nf."+class, fp.nfCall[class], ns)
	}
	carve(rows, "", "packet", fp.decodes(), float64(fp.decodes())*fp.decode)
	carve(rows, "", "nsh", fp.decodes(), fp.nshNs)
	carve(rows, "", "runtime", fp.run.pkts, engine)
	if cfg.Faults != nil {
		// Inside Simulate, each crash of the plan re-places and rewires
		// once; time those two calls on a deployment of the harness's own.
		local := newTracer(w.spec.name)
		fresh, err := metacompiler.Compile(w.in, w.res)
		if err != nil {
			return nil, c, err
		}
		if err := replaceServer(w.in, w.res, fresh, "nf-server-1", local); err != nil {
			return nil, c, err
		}
		med := spanMedians(local)
		layers["placer.replace_ms"] = med["placer.replace"] / 1e6
		layers["metacompiler.rewire_ms"] = med["metacompiler.rewire"] / 1e6
		crashes := 0
		for _, ev := range cfg.Faults.Events {
			if ev.Kind == chaos.Crash {
				crashes++
			}
		}
		carve(rows, "runtime", "placer", crashes, float64(crashes)*med["placer.replace"])
		carve(rows, "runtime", "metacompiler", crashes, float64(crashes)*med["metacompiler.rewire"])
	}
	fmt.Fprintf(out, "\nSimulate: %.0f ns/packet over %d packets; replica devices: %.0f ns/packet; trace overhead x%.3f\n",
		simNsPerPkt, int(pkts), fp.deviceNs()/rp, layers["trace.overhead_ratio"])
	printAttribution(out, w.spec.name, rows, total)
	return layers, c, nil
}

// stateMetrics turns the state tables' growth over the traced replica into
// the hit ratio: a lookup that did not hit inserted an entry (or, for NAT,
// failed to for want of ports). Dedup looks up every 64-byte chunk of the
// payload; the other stateful NFs look up once per packet.
func stateMetrics(before, after []experiments.NFTableState, fp framePath, layers map[string]float64) {
	was := map[string]experiments.NFTableState{}
	for _, s := range before {
		was[s.Name] = s
	}
	entries, inserts, evictions := 0.0, 0.0, 0.0
	for _, s := range after {
		b := was[s.Name]
		gone := float64(s.Evicted-b.Evicted) + float64(s.Exhausted-b.Exhausted)
		entries += float64(s.Entries)
		evictions += gone
		inserts += float64(s.Entries-b.Entries) + gone
	}
	payload := trafficgen.DefaultFrameBytes - packet.EthernetLen - packet.NSHLen - packet.IPv4Len - packet.UDPLen
	lookups := 0.0
	for _, class := range statefulClasses {
		per := 1
		if class == "Dedup" {
			per = payload / 64
		}
		lookups += float64(fp.nfCall[class] * per)
	}
	layers["nf.state_entries"] = entries
	layers["nf.state_evictions"] = evictions
	if lookups > 0 {
		layers["nf.flowtab.hit_ratio"] = math.Max(0, 1-inserts/lookups)
	}
}
