package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"lemur/internal/experiments"
	"lemur/internal/hw"
	"lemur/internal/metacompiler"
	"lemur/internal/nf"
	"lemur/internal/nfspec"
	"lemur/internal/nsh"
	"lemur/internal/openflow"
	"lemur/internal/packet"
	"lemur/internal/pisa"
	"lemur/internal/runtime"
	"lemur/internal/trafficgen"
)

// The traced pass of a simulator workload. Simulate is one call, so the
// harness cannot put spans inside it. It replays the workload's seeded
// traffic through a replica of Testbed.walk of its own instead: the same
// frames cross the same deployed devices through ProcessFrameInPlace, a
// small batch of frames per device call so that the clock reads around a
// call are shared, with every NF body behind a wrapper that counts every
// call and times one in eight. The replica has no queues, budgets or
// accounting, so what Simulate costs per packet beyond the replica's device
// time is the simulator engine's own share and is charged to "runtime".
//
// The split is an estimate, and it leans high, by a fifth on bare
// forwarding: Simulate walks one frame at a time through one buffer that
// never leaves the L1 cache, and a replica that shares clock reads among
// frames keeps a batch of them in flight. When the replica's devices alone
// cost more than all of Simulate, the engine's share reads 0. Smaller batches
// and walking one frame at a time with one packet in sixteen timed were both
// tried; clock reads between hops cost more than the cache they saved (the
// replica then overshot Simulate by a third, and by more than double).

// replicaBatch is how many frames the replica moves together: 64 frames of
// 1530 bytes stay in the L2 cache, and the two clock reads around a call
// sequence of 64 are under 1 % of it.
const replicaBatch = 64

// A time.Now call costs nowNs; the interval between two consecutive reads,
// which is what a timed region contains of its own two reads, is insideNs.
// Both are measured once. A cheap NF body costs about as much, so every
// sample is corrected by them.
var nowNs, insideNs = func() (float64, float64) {
	const n = 20000
	v := make([]float64, n)
	t0 := time.Now()
	for i := range v {
		t := time.Now()
		v[i] = float64(time.Since(t).Nanoseconds())
	}
	return float64(time.Since(t0).Nanoseconds()) / (2 * n), median(v)
}()

// nfTimer stands in for an NF inside a deployed device. It counts every
// call and times one in eight: a sampled mean times the exact count gives
// the total at an eighth of the clock reads.
type nfTimer struct {
	nf.NF
	layer string // the device layer the NF runs inside: pisa, bess or smartnic
	calls int
	timed int
	ns    int64
}

func (t *nfTimer) Process(p *packet.Packet, env *nf.Env) {
	t.calls++
	if t.calls&7 != 0 {
		t.NF.Process(p, env)
		return
	}
	t0 := time.Now()
	t.NF.Process(p, env)
	t.ns += time.Since(t0).Nanoseconds()
	t.timed++
}

// estNs is the estimated total time inside the NF body.
func (t *nfTimer) estNs() float64 {
	if t.timed == 0 {
		return 0
	}
	return math.Max(0, float64(t.ns)/float64(t.timed)-insideNs) * float64(t.calls)
}

// nfSlot is one place in a device's NF list that holds a timer.
type nfSlot struct {
	list []nf.NF
	i    int
	t    *nfTimer
}

// wrapNFs puts a timer in front of every NF instance of the deployment,
// one timer per instance however many path entries share it.
func wrapNFs(d *metacompiler.Deployment) []nfSlot {
	var slots []nfSlot
	timers := map[nf.NF]*nfTimer{}
	wrap := func(list []nf.NF, layer string) {
		for i, fn := range list {
			if _, done := fn.(*nfTimer); done {
				continue // a list two entries share
			}
			t := timers[fn]
			if t == nil {
				t = &nfTimer{NF: fn, layer: layer}
				timers[fn] = t
			}
			list[i] = t
			slots = append(slots, nfSlot{list, i, t})
		}
	}
	for _, name := range sortedNames(d.Pipelines) {
		for _, sg := range d.Pipelines[name].Subgroups() {
			wrap(sg.NFs, "bess")
		}
	}
	for _, name := range sortedNames(d.NICs) {
		for _, pp := range d.NICs[name].PathPrograms() {
			wrap(pp.NFs, "smartnic")
		}
	}
	for _, paths := range d.ChainPaths {
		for _, sp := range paths {
			for si := 0; si <= sp.Length(); si++ {
				if e := d.Switch.Entry(sp.SPI, uint8(si)); e != nil {
					wrap(e.Apply, "pisa")
				}
			}
		}
	}
	return slots
}

// harvest reads the NF state tables through experiments.HarvestNFState,
// which knows the NFs by their concrete types, so the timers step aside.
func harvest(d *metacompiler.Deployment, slots []nfSlot) []experiments.NFTableState {
	for _, s := range slots {
		s.list[s.i] = s.t.NF
	}
	defer func() {
		for _, s := range slots {
			s.list[s.i] = s.t
		}
	}()
	return experiments.HarvestNFState(d)
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// chainGen mirrors runtime.newChainGen, which is unexported: the same
// generator, seed and flow schedule Simulate gives chain ci, at a frame
// size of the caller's choosing.
func chainGen(agg nfspec.Aggregate, ci int, cfg runtime.SimConfig, frameBytes int) (frameSource, error) {
	tcfg := trafficgen.Config{
		Mode: trafficgen.LongLived, Seed: cfg.Seed + int64(ci), FrameBytes: frameBytes,
		SrcCIDR: agg.SrcCIDR, DstCIDR: agg.DstCIDR, Proto: agg.Proto, DstPort: agg.DstPort,
	}
	if cfg.FlowScale <= 0 {
		return trafficgen.New(tcfg)
	}
	if cfg.FlowChurn {
		tcfg.Mode = trafficgen.ShortLived
		tcfg.NewFlowsSec = cfg.FlowScale
	} else {
		tcfg.Flows = cfg.FlowScale
	}
	sched, err := trafficgen.ScheduleInto(nil, tcfg, cfg.DurationSec)
	if err != nil {
		return nil, err
	}
	return trafficgen.NewScheduled(tcfg, sched)
}

// replicaRun is what one replica walk counted.
type replicaRun struct {
	pkts, egressed, dropped int
	hops                    map[string]int // device layer -> frames processed
	wall                    time.Duration
}

// frameSource is the part of trafficgen's generators the replica uses.
type frameSource interface {
	NextInto(buf []byte, nowSec float64) []byte
}

// replica walks cfg's traffic through d's devices, fault-free. Each step
// injects what Simulate would, a batch at a time, and moves each batch wave
// by wave: every frame at the switch in one timed call sequence, then every
// frame bound for one server or NIC in one each, until all have egressed or
// dropped. Simulated time advances per step as in Simulate, because the
// Limiter reads it.
func (w *simWorkload) replica(d *metacompiler.Deployment, cfg runtime.SimConfig, frameBytes int, tr *tracer) (replicaRun, error) {
	run := replicaRun{hops: map[string]int{}}
	in := d.Input
	t0 := time.Now()
	// Simulate builds its generators, and with FlowScale their whole flow
	// schedules, inside the call; so does the replica, inside its time.
	tr.begin("trafficgen.schedule")
	gens := make([]frameSource, len(in.Chains))
	for ci, g := range in.Chains {
		gen, err := chainGen(g.Chain.Aggregate, ci, cfg, frameBytes)
		if err != nil {
			return run, err
		}
		gens[ci] = gen
	}
	tr.end()
	env := &nf.Env{Rand: rand.New(rand.NewSource(cfg.Seed*17 + 3))}
	servers, nics := sortedNames(d.Pipelines), sortedNames(d.NICs)
	toServer, toNIC := map[string][][]byte{}, map[string][][]byte{}
	var free [][]byte

	// walk moves one batch, all at the switch, until none is left.
	walk := func(atSwitch [][]byte) error {
		// back collects what a device hands back to the switch.
		back := func(f, out []byte, err error) error {
			if err != nil {
				return err
			}
			if out == nil {
				run.dropped++
				free = append(free, f[:0])
			} else {
				atSwitch = append(atSwitch, out)
			}
			return nil
		}
		for wave := 0; len(atSwitch) > 0; wave++ {
			if wave > 64 {
				return fmt.Errorf("replica: frames still moving after 64 waves (steering loop?)")
			}
			tr.begin("pisa")
			run.hops["pisa"] += len(atSwitch)
			stay := atSwitch[:0]
			for _, f := range atSwitch {
				out, fwd, err := d.Switch.ProcessFrameInPlace(f, env)
				if err != nil {
					return err
				}
				switch fwd.Kind {
				case pisa.Egress:
					run.egressed++
					free = append(free, out[:0])
				case pisa.Dropped:
					run.dropped++
					free = append(free, f[:0])
				case pisa.Continue:
					stay = append(stay, out)
				case pisa.ToServer:
					toServer[fwd.Target] = append(toServer[fwd.Target], out)
				case pisa.ToNIC:
					toNIC[fwd.Target] = append(toNIC[fwd.Target], out)
				default:
					return fmt.Errorf("replica: unsupported forward %v", fwd.Kind)
				}
			}
			tr.end()
			atSwitch = stay
			for _, name := range servers {
				frames := toServer[name]
				if len(frames) == 0 {
					continue
				}
				pl := d.Pipelines[name]
				tr.begin("bess")
				run.hops["bess"] += len(frames)
				for _, f := range frames {
					out, err := pl.ProcessFrameInPlace(f, env)
					if err := back(f, out, err); err != nil {
						return err
					}
				}
				tr.end()
				toServer[name] = frames[:0]
			}
			for _, name := range nics {
				frames := toNIC[name]
				if len(frames) == 0 {
					continue
				}
				nic := d.NICs[name]
				tr.begin("smartnic")
				run.hops["smartnic"] += len(frames)
				for _, f := range frames {
					out, err := nic.ProcessFrameInPlace(f, env)
					if err := back(f, out, err); err != nil {
						return err
					}
				}
				tr.end()
				toNIC[name] = frames[:0]
			}
		}
		return nil
	}

	acc := make([]float64, len(in.Chains))
	perStep := make([]float64, len(in.Chains))
	for ci, r := range w.offered {
		perStep[ci] = r / in.FrameBitsOrDefault() / cfg.Scale * cfg.StepSec
	}
	steps := int(cfg.DurationSec / cfg.StepSec)
	batch := make([][]byte, 0, replicaBatch)
	// flush closes the batch's trafficgen span and walks the batch.
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		tr.end()
		err := walk(batch)
		batch = batch[:0]
		return err
	}
	for step := 0; step < steps; step++ {
		now := float64(step) * cfg.StepSec
		env.NowSec = now
		for ci := range gens {
			for acc[ci] += perStep[ci]; acc[ci] >= 1; acc[ci]-- {
				if len(batch) == 0 {
					tr.begin("trafficgen")
				}
				var buf []byte
				if n := len(free); n > 0 {
					buf, free = free[n-1], free[:n-1]
				}
				batch = append(batch, gens[ci].NextInto(buf, now))
				run.pkts++
				if len(batch) == replicaBatch {
					if err := flush(); err != nil {
						return run, err
					}
				}
			}
		}
		if err := flush(); err != nil {
			return run, err
		}
	}
	run.wall = time.Since(t0)
	if run.egressed+run.dropped != run.pkts {
		return run, fmt.Errorf("replica: %d packets in, %d egressed + %d dropped", run.pkts, run.egressed, run.dropped)
	}
	return run, nil
}

// fixedCosts times, directly and on frames of the replica's size, the costs
// every device hop pays inside its call: decoding the frame, and the NSH
// header work. The switch pushes the header onto an entering frame and pops
// it off a leaving one (EncapInPlace, DecapInPlace); a server or NIC hop
// slides the L2 header over it and back (DecapShift, EncapShift).
func fixedCosts(frameBytes int) (decodeNs, switchNshNs, hopNshNs float64, err error) {
	gen, err := trafficgen.New(trafficgen.Config{Seed: 1, FrameBytes: frameBytes})
	if err != nil {
		return 0, 0, 0, err
	}
	const rounds = 256
	frames := make([][]byte, replicaBatch)
	for i := range frames {
		frames[i] = gen.NextInto(nil, 0)
	}
	// perFrame is the fastest of rounds passes of each over the frames.
	perFrame := func(each func(i int, f []byte) error) (float64, error) {
		best := math.Inf(1)
		for r := 0; r < rounds; r++ {
			t0 := time.Now()
			for i, f := range frames {
				if err := each(i, f); err != nil {
					return 0, err
				}
			}
			best = math.Min(best, float64(time.Since(t0).Nanoseconds())/replicaBatch)
		}
		return best, nil
	}
	var p packet.Packet
	if decodeNs, err = perFrame(func(_ int, f []byte) error { return p.Decode(f) }); err != nil {
		return 0, 0, 0, err
	}
	switchNshNs, err = perFrame(func(i int, f []byte) error {
		enc, err := nsh.EncapInPlace(f, 7, 3)
		if err != nil {
			return err
		}
		frames[i], _, _, err = nsh.DecapInPlace(enc)
		return err
	})
	if err != nil {
		return 0, 0, 0, err
	}
	for i, f := range frames {
		if frames[i], err = nsh.EncapInPlace(f, 7, 3); err != nil {
			return 0, 0, 0, err
		}
	}
	hopNshNs, err = perFrame(func(_ int, f []byte) error {
		if _, _, _, err := nsh.DecapShift(f); err != nil {
			return err
		}
		return nsh.EncapShift(f, 7, 2)
	})
	return decodeNs, switchNshNs, hopNshNs, err
}

// openflowNs times the OpenFlow switch, which no deployment includes, on
// ACL(64) -> IPv4Fwd: the per-frame cost of its ProcessFrame.
func openflowNs(frameBytes int) (float64, error) {
	sw := openflow.NewSwitch(hw.NewPaperTestbed(hw.WithOpenFlowSwitch()).OFSwitch)
	acl, err := nf.New("ACL", "of-acl", nf.Params{"allow_dst": "172.16.0.0/12", "rules": 64})
	if err != nil {
		return 0, err
	}
	fwd, err := nf.New("IPv4Fwd", "of-fwd", nil)
	if err != nil {
		return 0, err
	}
	vid, err := openflow.PathVID(1, 1)
	if err != nil {
		return 0, err
	}
	if err := sw.Deploy(vid, []nf.NF{acl, fwd}, 64, openflow.Binding{OutPort: 3}); err != nil {
		return 0, err
	}
	payload := frameBytes - packet.EthernetLen - packet.VLANLen - packet.IPv4Len - packet.UDPLen
	if payload < 0 {
		payload = 0
	}
	const n = 4096
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = packet.Builder{VLANID: vid, Src: packet.IPv4Addr{10, 1, byte(i >> 8), byte(i)},
			Dst: packet.IPv4Addr{172, 16, 0, 1}, SrcPort: uint16(1024 + i), DstPort: 80, PayloadLen: payload}.Build()
	}
	env := &nf.Env{}
	t0 := time.Now()
	for _, f := range frames {
		out, err := sw.ProcessFrame(f, env)
		if err != nil || out == nil {
			return 0, fmt.Errorf("openflow: frame not forwarded: %v", err)
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / n, nil
}

// framePath is the replica's split of one run into layers.
type framePath struct {
	run replicaRun
	// self is each layer's time once NF bodies, decode, NSH and the clock
	// reads have been carved out of the device calls that contain them.
	self   map[string]float64
	nfNs   map[string]float64 // NF class -> estimated ns
	nfCall map[string]int     // NF class -> calls
	decode float64            // ns per decode
	nshNs  float64            // all NSH header work of the run
}

// tracedReplica runs the replica on d under tr, with the NF timers of
// slots in place, and splits its time.
func (w *simWorkload) tracedReplica(d *metacompiler.Deployment, slots []nfSlot, cfg runtime.SimConfig, frameBytes int, tr *tracer) (framePath, error) {
	fp := framePath{self: map[string]float64{}, nfNs: map[string]float64{}, nfCall: map[string]int{}}
	for _, s := range slots {
		s.t.calls, s.t.timed, s.t.ns = 0, 0, 0
	}
	var err error
	if fp.run, err = w.replica(d, cfg, frameBytes, tr); err != nil {
		return fp, err
	}
	decode, switchNsh, hopNsh, err := fixedCosts(frameBytes)
	if err != nil {
		return fp, err
	}
	fp.decode = decode
	// The replica's spans do not nest. Each holds insideNs of its own two
	// clock reads.
	for _, s := range tr.spans {
		fp.self[layerOf(s.Name)] += float64(s.EndNs-s.StartNs) - insideNs
	}
	// NF bodies: out of the device layer go the body's estimated time and
	// both clock reads of every timed call.
	seen := map[*nfTimer]bool{}
	for _, s := range slots {
		t := s.t
		if seen[t] {
			continue
		}
		seen[t] = true
		class := t.Class()
		if class == "Match" {
			class = "BPF" // the chain specs' name for the Match NF
		}
		fp.nfNs[class] += t.estNs()
		fp.nfCall[class] += t.calls
		fp.self[t.layer] -= t.estNs() + float64(t.timed)*2*nowNs
	}
	// Every device hop decodes once and slides the NSH header once, but the
	// switch pushes and pops it once per packet.
	for layer, hops := range fp.run.hops {
		nsh := float64(hops) * hopNsh
		if layer == "pisa" {
			nsh = float64(fp.run.pkts) * switchNsh
		}
		fp.nshNs += nsh
		fp.self[layer] -= float64(hops)*fp.decode + nsh
	}
	return fp, nil
}

// deviceNs is the replica's whole device time: every layer's self time plus
// what was carved out of them.
func (fp framePath) deviceNs() float64 {
	total := 0.0
	for _, ns := range fp.self {
		total += ns
	}
	for _, ns := range fp.nfNs {
		total += ns
	}
	return total + float64(fp.decodes())*fp.decode + fp.nshNs
}

func (fp framePath) decodes() int {
	n := 0
	for _, h := range fp.run.hops {
		n += h
	}
	return n
}

// framePathMetrics are the per-layer frame path metrics at one frame size.
// A device's self time is what is left of its calls once the estimates of
// what runs inside them are taken off; where those estimates overshoot, the
// metric reads 0 (the attribution table keeps the signed number, so that its
// rows still add up).
func (fp framePath) framePathMetrics(size string, layers map[string]float64) {
	pkts := float64(fp.run.pkts)
	layers["trafficgen.ns_per_pkt_"+size] = fp.self["trafficgen"] / pkts
	layers["packet.decode_ns_per_pkt_"+size] = fp.decode
	layers["nsh.encap_decap_ns_per_pkt_"+size] = fp.nshNs / pkts
	layers["pisa.ns_per_pkt_"+size] = math.Max(0, fp.self["pisa"]) / pkts
	layers["bess.dispatch_ns_per_pkt_"+size] = math.Max(0, fp.self["bess"]) / pkts
	layers["smartnic.ns_per_pkt_"+size] = math.Max(0, fp.self["smartnic"]) / pkts
}
