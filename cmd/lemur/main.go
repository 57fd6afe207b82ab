// Command lemur places NF chain specifications onto the simulated rack,
// prints the placement report, and optionally emits the generated code
// artifacts and verifies the deployment with test traffic.
//
// Usage:
//
//	lemur -spec chains.lemur [-scheme Lemur] [-smartnic] [-servers 2]
//	      [-emit out/] [-verify 1000] [-chaos "crash:nf-server-1@0.3s"]
//	      [-churn "admit:web@0.2s;retire:chain2@0.6s"] [-headroom 4]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"lemur"
	"lemur/internal/nfspec"
	"lemur/internal/obs"
	"lemur/internal/pisa"
	"lemur/internal/trafficgen"
)

func main() {
	var (
		specPath   = flag.String("spec", "", "chain specification file (required)")
		scheme     = flag.String("scheme", "Lemur", "placement scheme: Lemur, Optimal, HWPreferred, SWPreferred, MinBounce, Greedy")
		smartnic   = flag.Bool("smartnic", false, "attach a 40G eBPF SmartNIC")
		servers    = flag.Int("servers", 1, "number of NF servers")
		openflow   = flag.Bool("openflow", false, "add an OpenFlow switch")
		emitDir    = flag.String("emit", "", "directory to write generated P4/BESS/eBPF artifacts")
		verify     = flag.Int("verify", 0, "walk this many generated frames per chain through the deployment")
		fwdP4      = flag.Bool("fwd-p4-only", true, "restrict IPv4Fwd to the PISA switch (evaluation setting)")
		pcapPath   = flag.String("pcap", "", "dump generated traffic for each chain's aggregate to this pcap file")
		pcapN      = flag.Int("pcap-frames", 100, "frames per chain for -pcap")
		metrics    = flag.String("metrics-out", "", "write a metrics snapshot to this JSON path (plus .prom alongside)")
		parallel   = flag.Int("parallel", 0, "placer candidate-evaluation workers (<=1 serial; same result at any value)")
		simulate   = flag.String("simulate", "", "comma-separated load factors (e.g. \"0.8,1.0,1.5\"): run the discrete-time simulator at each multiple of the placed rates")
		chaosSched = flag.String("chaos", "", "fault-injection schedule for a failover simulation, e.g. \"crash:nf-server-1@0.3s\" or \"crash:nf-server-0@0.1s;overload:nf-server-1@0.2sx4\"")
		churnSched = flag.String("churn", "", "chain-churn schedule for an online admission/retirement simulation, e.g. \"admit:web@0.2s;retire:chain2@0.6s\"; admit targets must be chains in -spec (they are held out of the initial deployment)")
		headroom   = flag.Int("headroom", 0, "per-server worker cores reserved for future admissions; without a reserve the placer spends every core on throughput and -churn admissions usually need a full repack")
		simWorkers = flag.Int("sim-workers", 1, "worker shards per -simulate/-chaos/-churn run (results byte-identical at any value)")
		schedPol   = flag.String("sched-policy", "", "per-core scheduler drain order for -simulate/-chaos/-churn: \"edf\" (default when any chain sets a deadline) or \"rr\" (force the legacy round-robin order)")
	)
	flag.Parse()
	if *simWorkers < 1 {
		fatal(fmt.Errorf("-sim-workers must be a positive worker count, got %d", *simWorkers))
	}
	if *metrics != "" {
		obs.Enable()
		metricsPath = *metrics
	}
	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "lemur: -spec is required")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(*specPath)
	if err != nil {
		fatal(err)
	}

	opts := []lemur.Option{lemur.WithScheme(lemur.Scheme(*scheme))}
	if *smartnic {
		opts = append(opts, lemur.WithSmartNIC())
	}
	if *servers > 1 {
		opts = append(opts, lemur.WithServers(*servers))
	}
	if *openflow {
		opts = append(opts, lemur.WithOpenFlowSwitch())
	}
	if *fwdP4 {
		opts = append(opts, lemur.WithP4Only("IPv4Fwd"))
	}
	if *parallel > 1 {
		opts = append(opts, lemur.WithParallel(*parallel))
	}
	// Passed through as given: the placer refuses a negative reserve.
	opts = append(opts, lemur.WithAdmissionHeadroom(*headroom))
	if *simWorkers > 1 {
		opts = append(opts, lemur.WithSimWorkers(*simWorkers))
	}
	if *schedPol != "" {
		opts = append(opts, lemur.WithSchedPolicy(*schedPol))
	}

	sys := lemur.New(opts...)
	if err := sys.LoadSpec(string(src)); err != nil {
		fatal(err)
	}
	if *pcapPath != "" {
		if err := dumpPcap(string(src), *pcapPath, *pcapN); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *pcapPath)
	}
	pl, err := sys.Place()
	if err != nil {
		fatal(err)
	}
	fmt.Print(pl.Summary())
	if pl.Truncated() {
		fmt.Fprintf(os.Stderr,
			"lemur: warning: Optimal search truncated by its budget (%d combinations unscored); the placement may be sub-optimal — raise the brute-force budget for an exhaustive answer\n",
			pl.SkippedCombos())
	}
	if !pl.Feasible() {
		writeMetrics()
		os.Exit(1)
	}

	if *emitDir == "" && *verify == 0 && *simulate == "" && *chaosSched == "" && *churnSched == "" {
		writeMetrics()
		return
	}
	dep, err := sys.Deploy()
	if err != nil {
		fatal(err)
	}
	if *emitDir != "" {
		if err := os.MkdirAll(*emitDir, 0o755); err != nil {
			fatal(err)
		}
		write := func(name, content string) {
			path := filepath.Join(*emitDir, name)
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", path)
		}
		write("unified.p4", dep.P4Source())
		for server, script := range dep.BESSScripts() {
			write("bess_"+server+".py", script)
		}
		for name, src := range dep.EBPFSources() {
			write("xdp_"+name+".c", src)
		}
		fmt.Printf("auto-generated share of P4: %.0f%%\n", dep.AutoGeneratedShare()*100)
	}
	if *verify > 0 {
		rep, err := dep.SendPackets(*verify)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("traffic: injected=%d egressed=%d dropped=%d\n",
			rep.Injected, rep.Egressed, rep.Dropped)
		m, err := dep.Measure()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("measured aggregate: %.2f Gbps\n", m.AggregateBps/1e9)
	}
	if *simulate != "" {
		if err := runSimulate(sys, *simulate); err != nil {
			fatal(err)
		}
	}
	if *chaosSched != "" {
		if err := runChaos(sys, *chaosSched); err != nil {
			fatal(err)
		}
	}
	if *churnSched != "" {
		if err := runChurn(sys, *churnSched); err != nil {
			fatal(err)
		}
	}
	writeMetrics()
}

// runChurn runs an online admission/retirement simulation under the given
// churn schedule (chains named by admit events start outside the deployment)
// and prints the churn arc: fired and rejected events, rewire accounting,
// per-chain admission latency and churn drops, and post-churn SLO compliance.
func runChurn(sys *lemur.System, schedule string) error {
	rep, err := sys.SimulateChurn(1.0, schedule)
	if err != nil {
		return err
	}
	co := rep.Churn
	if co == nil {
		return fmt.Errorf("-churn: schedule %q has no events", schedule)
	}
	fmt.Printf("churn: %s (detection %.0fms + reconfig %.0fms)\n",
		schedule, co.DetectionDelaySec*1e3, co.ReconfigDelaySec*1e3)
	for _, ev := range co.Events {
		fmt.Printf("  fired %s\n", ev)
	}
	for _, rj := range co.Rejected {
		fmt.Printf("  rejected %s\n", rj)
	}
	for _, rw := range co.RewireSummaries {
		fmt.Printf("  %s\n", rw)
	}
	compliant := 0
	for ci := range co.ChurnDrops {
		state := "running from start"
		if co.AdmittedAtSec[ci] >= 0 {
			state = fmt.Sprintf("admitted at %.3fs", co.AdmittedAtSec[ci])
			if co.AdmitLatencySec[ci] >= 0 {
				state += fmt.Sprintf(" (first egress after %.1fms)", co.AdmitLatencySec[ci]*1e3)
			}
		}
		if co.RetiredAtSec[ci] >= 0 {
			state += fmt.Sprintf(", retired at %.3fs", co.RetiredAtSec[ci])
		}
		verdict := "SLO MET"
		if !co.PostSLOCompliant[ci] {
			verdict = "SLO VIOLATED"
		} else {
			compliant++
		}
		fmt.Printf("  chain %d: %s, churn drops %d, post-churn %.2f Gbps -> %s\n",
			ci, state, co.ChurnDrops[ci], co.PostAchievedBps[ci]/1e9, verdict)
	}
	fmt.Printf("  post-churn window %.2fs: %d/%d chains meet their SLO\n",
		co.PostWindowSec, compliant, len(co.ChurnDrops))
	return nil
}

// runChaos runs a failover simulation under the given fault schedule on a
// fresh deployment (a failover run rewires the deployment in place) and
// prints the recovery arc: downtime, fault drops, and whether each chain's
// post-failover rate still meets its SLO.
func runChaos(sys *lemur.System, schedule string) error {
	dep, err := sys.Deploy()
	if err != nil {
		return err
	}
	rep, err := dep.SimulateWithFaults(1.0, schedule)
	if err != nil {
		return err
	}
	fo := rep.Failover
	if fo == nil {
		return fmt.Errorf("-chaos: schedule %q injects no faults", schedule)
	}
	fmt.Printf("chaos: %s (detection %.0fms + reconfig %.0fms)\n",
		schedule, fo.DetectionDelaySec*1e3, fo.ReconfigDelaySec*1e3)
	for _, ev := range fo.Events {
		fmt.Printf("  fired %s\n", ev)
	}
	if fo.ReplaceError != "" {
		fmt.Printf("  re-placement FAILED: %s (severed chains stay down)\n", fo.ReplaceError)
	}
	if fo.RewireSummary != "" {
		fmt.Printf("  %s\n", fo.RewireSummary)
	}
	compliant := 0
	for ci := range fo.DowntimeSec {
		verdict := "SLO MET"
		if !fo.PostSLOCompliant[ci] {
			verdict = "SLO VIOLATED"
		} else {
			compliant++
		}
		fmt.Printf("  chain %d: downtime %.1fms, fault drops %d, post-failover %.2f Gbps -> %s\n",
			ci, fo.DowntimeSec[ci]*1e3, fo.FaultDrops[ci], fo.PostAchievedBps[ci]/1e9, verdict)
	}
	fmt.Printf("  post-failover window %.2fs: %d/%d chains meet their SLO\n",
		fo.PostWindowSec, compliant, len(fo.DowntimeSec))
	return nil
}

// runSimulate runs the discrete-time simulator at each requested load factor
// on its own freshly deployed testbed (a run mutates NF and queue state) and
// prints goodput, loss, and queueing delay per chain.
func runSimulate(sys *lemur.System, factors string) error {
	fmt.Println("simulation: load factor sweep (discrete-time, bounded queues)")
	for _, tok := range strings.Split(factors, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return fmt.Errorf("-simulate: %w", err)
		}
		dep, err := sys.Deploy()
		if err != nil {
			return err
		}
		rep, err := dep.Simulate(f)
		if err != nil {
			return err
		}
		for ci := range rep.AchievedBps {
			fmt.Printf("  load %.2fx chain %d: achieved %.2f Gbps, drop %.2f%%, avg delay %.1fus, p99 %.1fus (injected %d, egressed %d)",
				f, ci, rep.AchievedBps[ci]/1e9, rep.DropRate[ci]*100,
				rep.AvgQueueDelaySec[ci]*1e6, rep.P99QueueDelaySec[ci]*1e6,
				rep.Injected[ci], rep.Egressed[ci])
			if rep.DeadlineCompliance != nil {
				fmt.Printf(", deadline met %.1f%%", rep.DeadlineCompliance[ci]*100)
			}
			fmt.Println()
		}
	}
	return nil
}

// metricsPath is the -metrics-out destination ("" = disabled). Written via
// an explicit call at every exit point because fatal/os.Exit skip defers.
var metricsPath string

func writeMetrics() {
	if metricsPath == "" {
		return
	}
	// Gauges snapshot state rather than flow; refresh the compile-cache view
	// so the exported file reflects cache effectiveness at exit.
	pisa.SharedCache().SyncObs()
	if err := obs.Default().WriteFiles(metricsPath); err != nil {
		// The caller explicitly asked for this file; failing to produce it
		// must not look like success.
		fmt.Fprintln(os.Stderr, "lemur: metrics:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", metricsPath)
}

// dumpPcap writes generated traffic for every chain's aggregate into one
// capture, so the synthetic workloads can be inspected with tcpdump.
func dumpPcap(spec, path string, nPerChain int) error {
	chains, err := nfspec.Parse(spec)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	pw, err := trafficgen.NewPcapWriter(f)
	if err != nil {
		return err
	}
	for ci, c := range chains {
		gen, err := trafficgen.New(trafficgen.Config{
			Mode:    trafficgen.LongLived,
			Seed:    int64(ci + 1),
			SrcCIDR: c.Aggregate.SrcCIDR,
			DstCIDR: c.Aggregate.DstCIDR,
			Proto:   c.Aggregate.Proto,
			DstPort: c.Aggregate.DstPort,
		})
		if err != nil {
			return err
		}
		var buf []byte
		for i := 0; i < nPerChain; i++ {
			ts := float64(i) * 1e-5
			buf = gen.NextInto(buf, ts)
			if err := pw.WriteFrame(ts, buf); err != nil {
				return err
			}
		}
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lemur:", err)
	writeMetrics()
	os.Exit(1)
}
