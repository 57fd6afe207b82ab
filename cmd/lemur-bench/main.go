// Command lemur-bench regenerates the paper's evaluation tables and
// figures as text output. Each flag reproduces one artifact of §5:
//
//	lemur-bench -figure 2a        # δ sweep, chains {1,2,3,4}, all schemes
//	lemur-bench -figure 2f        # component ablations
//	lemur-bench -figure 3a|3b|3c  # multi-server / SmartNIC / OpenFlow
//	lemur-bench -table 3|4        # NF placement matrix / profiled costs
//	lemur-bench -extreme          # §5.2 11-NAT stage-constraint study
//	lemur-bench -sensitivity      # §5.2 profiling-error study
//	lemur-bench -latency          # §5.3 latency SLOs
//	lemur-bench -loc              # §5.3 meta-compiler LoC accounting
//	lemur-bench -scaling          # §5.3 placement computation time
//	lemur-bench -feasibility      # feasible-solution shares per scheme
//	lemur-bench -failover         # SLO compliance under k server failures
//	lemur-bench -churn            # admission capacity: incremental vs repack
//	lemur-bench -reconcile        # lemurd control-plane convergence table
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"lemur/internal/experiments"
	"lemur/internal/hw"
	"lemur/internal/nf"
	"lemur/internal/obs"
	"lemur/internal/pisa"
	"lemur/internal/placer"
)

func main() {
	var (
		figure      = flag.String("figure", "", "2a|2b|2c|2d|2e|2f|3a|3b|3c")
		table       = flag.String("table", "", "3|4")
		extreme     = flag.Bool("extreme", false, "11-NAT stage-constraint study")
		sensitivity = flag.Bool("sensitivity", false, "profiling-error study")
		latency     = flag.Bool("latency", false, "latency SLO study")
		loc         = flag.Bool("loc", false, "meta-compiler LoC accounting")
		scaling     = flag.Bool("scaling", false, "placer computation time")
		feasibility = flag.Bool("feasibility", false, "feasibility summary across all sets")
		quick       = flag.Bool("quick", false, "coarser δ grid, smaller budgets")
		runs        = flag.Int("runs", 500, "profiling runs for -table 4")
		metrics     = flag.String("metrics-out", "", "write a metrics snapshot to this JSON path (plus .prom alongside)")
		parallel    = flag.Int("parallel", 0, "worker count for experiment cells and placer candidate evaluation (0 = GOMAXPROCS cells, serial placer)")
		sim         = flag.Bool("sim", false, "parallel load-factor sweep with the discrete-time dataplane simulator")
		scale       = flag.Bool("scale", false, "throughput-vs-flow-count curve: 1k to 1M concurrent flows through the stateful dataplane")
		failover    = flag.Bool("failover", false, "SLO compliance under k server failures (parallel fault-injection sweep)")
		churnBench  = flag.Bool("churn", false, "admission-capacity sweep: chains admitted incrementally until first refusal (parallel)")
		simWorkers  = flag.Int("sim-workers", 1, "worker shards per simulation run for -sim/-scale/-failover (results are byte-identical at any value)")
		cores       = flag.Bool("cores", false, "cores-vs-throughput curve: the flow-scaled point rerun at 1/2/4/8 worker shards, sequentially")
		coresFlows  = flag.Int("cores-flows", 1_000_000, "with -cores: concurrent-flow population for the measured point")
		coresPkts   = flag.Int("cores-pkts", 10_000_000, "with -cores: target packet count for the measured point")
		placeScale  = flag.Bool("place-scale", false, "placement solve-time curve: 4..256 servers × chain counts, all schemes, with branch-and-bound search stats")
		reconcile   = flag.Bool("reconcile", false, "lemurd control-plane convergence sweep: scripted reconcile scenarios run to convergence on a fake clock")
		reconIvl    = flag.Duration("reconcile-interval", 100*time.Millisecond, "with -reconcile: the daemons' reconcile period; must be positive")
	)
	flag.Parse()
	if *simWorkers < 1 {
		fatal(fmt.Errorf("-sim-workers must be a positive worker count, got %d", *simWorkers))
	}
	if *reconcile && *reconIvl <= 0 {
		fatal(fmt.Errorf("-reconcile-interval must be positive, got %v", *reconIvl))
	}
	if *cores && *coresFlows <= 0 {
		fatal(fmt.Errorf("-cores-flows must be a positive flow count, got %d", *coresFlows))
	}
	if *cores && *coresPkts <= 0 {
		fatal(fmt.Errorf("-cores-pkts must be a positive packet count, got %d", *coresPkts))
	}
	b := bench{parallel: *parallel, simWorkers: *simWorkers}
	if *metrics != "" {
		obs.Enable()
		metricsPath = *metrics
		// Walk real frames through every deployment so the per-platform
		// packet counters in the snapshot are live, not zero.
		b.verifyPackets = 100
	}

	deltas := experiments.DefaultDeltas()
	if *quick {
		deltas = []float64{0.5, 1.0, 1.5, 2.0}
	}

	switch {
	case *sim:
		b.runSimSweep()
	case *scale:
		b.runScale()
	case *cores:
		b.runCores(*coresFlows, *coresPkts)
	case *placeScale:
		b.runPlaceScale()
	case *failover:
		b.runFailover()
	case *churnBench:
		b.runChurnBench()
	case *reconcile:
		b.runReconcile(*reconIvl)
	case *figure != "":
		b.runFigure(*figure, deltas, *quick)
	case *table == "3":
		printTable3()
	case *table == "4":
		printTable4(*runs)
	case *extreme:
		runExtreme()
	case *sensitivity:
		b.runSensitivity()
	case *latency:
		b.runLatency()
		b.runLatencySweep()
	case *loc:
		b.runLoC()
	case *scaling:
		b.runScaling(*quick)
	case *feasibility:
		b.runFeasibility(deltas, *quick)
	default:
		flag.Usage()
		os.Exit(2)
	}
	writeMetrics()
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
		fmt.Fprintln(os.Stderr, "lemur-bench: metrics:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", metricsPath)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lemur-bench:", err)
	writeMetrics()
	os.Exit(1)
}

// bench carries the flags the sub-commands share.
type bench struct {
	parallel   int // -parallel
	simWorkers int // -sim-workers
	// verifyPackets is the frame count every runner walks through each
	// deployment; non-zero only under -metrics-out.
	verifyPackets int
}

// newRunner is the one place a sub-command gets its Runner: the paper's
// defaults on topo, with -parallel and the -metrics-out verify count applied.
// Experiments that build sibling runners copy them from this one.
func (b bench) newRunner(topo *hw.Topology) *experiments.Runner {
	r := experiments.NewRunner(topo)
	r.Parallel = b.parallel
	r.VerifyPackets = b.verifyPackets
	return r
}

func gbps(v float64) string { return fmt.Sprintf("%.2f", v/1e9) }

// gbpsOrInfeasible is one Figure 3 table cell.
func gbpsOrInfeasible(feasible bool, bps float64) string {
	if !feasible {
		return "infeasible"
	}
	return gbps(bps) + " Gbps"
}

func (b bench) runFigure(which string, deltas []float64, quick bool) {
	switch which {
	case "2a", "2b", "2c", "2d", "2e":
		combo := experiments.Figure2Combos()[which[1]-'a'] // listed in panel order, 2a first
		r := b.newRunner(hw.NewPaperTestbed())
		schemes := []placer.Scheme{placer.SchemeLemur, placer.SchemeOptimal,
			placer.SchemeHWPreferred, placer.SchemeSWPreferred,
			placer.SchemeMinBounce, placer.SchemeGreedy}
		if quick {
			schemes = []placer.Scheme{placer.SchemeLemur, placer.SchemeHWPreferred,
				placer.SchemeSWPreferred, placer.SchemeGreedy}
		}
		rows, err := r.Figure2Panel(combo, deltas, schemes)
		if err != nil {
			fatal(err)
		}
		printPanel(fmt.Sprintf("Figure %s: chains %v, aggregate throughput (Gbps) vs δ", which, combo), rows)
	case "2f":
		rows, err := b.newRunner(hw.NewPaperTestbed()).Figure2f(deltas)
		if err != nil {
			fatal(err)
		}
		printPanel("Figure 2f: component ablations, chains {1,2,3,4}", rows)
	case "3a":
		rows, err := b.newRunner(hw.NewPaperTestbed()).Figure3a([]float64{0.5, 1.0, 1.5})
		if err != nil {
			fatal(err)
		}
		fmt.Println("Figure 3a: chains {1,2,3} on one vs two 8-core servers")
		w := tw()
		fmt.Fprintln(w, "δ\t1-server\t2-server\t")
		for _, row := range rows {
			fmt.Fprintf(w, "%.1f\t%s\t%s\t\n", row.Delta,
				gbpsOrInfeasible(row.SingleFeasible, row.SingleAggregate),
				gbpsOrInfeasible(row.TwoServerFeasible, row.TwoServerAggregate))
		}
		w.Flush()
	case "3b":
		rows, err := b.newRunner(hw.NewPaperTestbed()).Figure3b([]float64{0.5, 1.0, 1.5})
		if err != nil {
			fatal(err)
		}
		fmt.Println("Figure 3b: chain 5 (ChaCha) with and without the SmartNIC")
		w := tw()
		fmt.Fprintln(w, "δ\tserver-only\twith SmartNIC\tNIC used\t")
		for _, row := range rows {
			fmt.Fprintf(w, "%.1f\t%s\t%s\t%v\t\n", row.Delta,
				gbpsOrInfeasible(row.ServerOnlyFeasible, row.ServerOnlyAgg),
				gbpsOrInfeasible(row.WithNICFeasible, row.WithNICAgg), row.NICUsed)
		}
		w.Flush()
	case "3c":
		r := experiments.Figure3c()
		fmt.Println("Figure 3c: large ACL via OpenFlow switch vs commodity server")
		fmt.Printf("  OpenFlow offload: %s Gbps\n", gbps(r.OFRateBps))
		fmt.Printf("  server-stitched:  %s Gbps\n", gbps(r.ServerRateBps))
		fmt.Printf("  speedup:          %.1fx\n", r.Speedup)
	default:
		fatal(fmt.Errorf("unknown figure %q", which))
	}
}

func printPanel(title string, rows []experiments.DeltaRow) {
	fmt.Println(title)
	w := tw()
	fmt.Fprint(w, "δ\tΣt_min\t")
	for _, sr := range rows[0].Schemes {
		fmt.Fprintf(w, "%s\t", sr.Scheme)
	}
	fmt.Fprintln(w)
	for _, row := range rows {
		fmt.Fprintf(w, "%.1f\t%s\t", row.Set.Delta, gbps(row.Set.AggTmin))
		for _, sr := range row.Schemes {
			if sr.Feasible {
				fmt.Fprintf(w, "%s (◇%s)\t", gbps(sr.MeasuredAggregate), gbps(sr.PredictedAggregate))
			} else {
				fmt.Fprint(w, "—\t")
			}
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	fmt.Println("(— = no feasible solution; ◇ = predicted)")
}

func printTable3() {
	fmt.Println("Table 3: NFs and available placement choices")
	w := tw()
	fmt.Fprintln(w, "NF\tSpec\tC++\tP4\teBPF\tOF\trepl\t")
	for _, class := range nf.Classes() {
		m := nf.Registry[class]
		dot := func(ok bool) string {
			if ok {
				return "●"
			}
			return ""
		}
		repl := ""
		if !m.Replicable {
			repl = "no"
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t\n", class, m.Spec,
			dot(m.SupportsPlatform(hw.Server)), dot(m.SupportsPlatform(hw.PISA)),
			dot(m.SupportsPlatform(hw.SmartNIC)), dot(m.SupportsPlatform(hw.OpenFlow)), repl)
	}
	w.Flush()
}

func printTable4(runs int) {
	rows, err := experiments.Table4(runs)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("Table 4: profiled NF costs (CPU cycles/packet), %d runs\n", runs)
	w := tw()
	fmt.Fprintln(w, "NF\tNUMA\tMean\tMin\tMax\t")
	for _, row := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.0f\t%.0f\t%.0f\t\n",
			row.NF, row.NUMA, row.Stats.Mean, row.Stats.Min, row.Stats.Max)
	}
	w.Flush()
}

func runExtreme() {
	fmt.Println("§5.2 extreme config: BPF -> 11x NAT (branched) -> IPv4Fwd, δ=0.5")
	rows, err := experiments.ExtremeConfig([]placer.Scheme{
		placer.SchemeLemur, placer.SchemeHWPreferred, placer.SchemeMinBounce,
		placer.SchemeSWPreferred, placer.SchemeGreedy})
	if err != nil {
		fatal(err)
	}
	w := tw()
	fmt.Fprintln(w, "scheme\tfeasible\tstages\tNATs sw/srv\treason\t")
	for _, row := range rows {
		fmt.Fprintf(w, "%s\t%v\t%d\t%d/%d\t%.60s\t\n",
			row.Scheme, row.Feasible, row.Stages, row.NATsOnSwitch, row.NATsOnServer, row.Reason)
	}
	w.Flush()
}

func (b bench) runSensitivity() {
	fmt.Println("§5.2 profiling-error sensitivity, chains {1,2,3,4}, δ=0.5")
	r := b.newRunner(hw.NewPaperTestbed())
	rows, base, err := r.Sensitivity(0.5, []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("baseline marginal: %s Gbps\n", gbps(base))
	w := tw()
	fmt.Fprintln(w, "error\tfeasible\tmarginal\tsame as baseline\t")
	for _, row := range rows {
		fmt.Fprintf(w, "-%.0f%%\t%v\t%s\t%v\t\n",
			row.ErrorFraction*100, row.Feasible, gbps(row.Marginal), row.SameAsBase)
	}
	w.Flush()
}

func (b bench) runLatency() {
	fmt.Println("§5.3 latency SLOs, chains {1,3}, δ=1.0")
	rows, err := b.newRunner(hw.NewPaperTestbed()).Latency([]float64{45e-6, 35e-6, 25e-6})
	if err != nil {
		fatal(err)
	}
	w := tw()
	fmt.Fprintln(w, "d_max\tfeasible\taggregate\tbounces\t")
	for _, row := range rows {
		fmt.Fprintf(w, "%.0fus\t%v\t%s Gbps\t%d\t\n",
			row.DMaxSec*1e6, row.Feasible, gbps(row.Aggregate), row.Bounces)
	}
	w.Flush()
}

func (b bench) runLoC() {
	fmt.Println("§5.3 meta-compiler LoC accounting, chains {1,2,3,4}, δ=0.5")
	loc, err := b.newRunner(hw.NewPaperTestbed()).MetaCompilerLoC(0.5)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  generated P4:    %d lines (%d steering)\n", loc.P4Total, loc.P4Steering)
	fmt.Printf("  hand-written P4: %d lines\n", loc.Handwritten)
	fmt.Printf("  generated BESS:  %d lines\n", loc.BESS)
	fmt.Printf("  auto-generated share: %.0f%%\n", loc.AutoShare*100)
}

func (b bench) runScaling(quick bool) {
	fmt.Println("§5.3 placer scaling, chains {1,2,3,4}, δ=0.5")
	budget := 20000
	if quick {
		budget = 2000
	}
	sc, err := b.newRunner(hw.NewPaperTestbed()).PlacerScaling(0.5, budget)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  heuristic:   %v\n", sc.Heuristic)
	fmt.Printf("  brute force: %v (budget %d combinations)\n", sc.BruteForce, budget)
	fmt.Printf("  speedup:     %.0fx, same result: %v\n", sc.SpeedupX, sc.SameResult)
}

func (b bench) runFeasibility(deltas []float64, quick bool) {
	fmt.Println("feasible-solution share per scheme over all Figure 2 sets")
	schemes := []placer.Scheme{placer.SchemeLemur, placer.SchemeHWPreferred,
		placer.SchemeSWPreferred, placer.SchemeMinBounce, placer.SchemeGreedy}
	if !quick {
		schemes = append(schemes, placer.SchemeOptimal)
	}
	_, share, solvShare, err := b.newRunner(hw.NewPaperTestbed()).FeasibilitySummary(deltas, schemes)
	if err != nil {
		fatal(err)
	}
	w := tw()
	fmt.Fprintln(w, "scheme\tall sets\tsolvable sets\t")
	for _, s := range schemes {
		fmt.Fprintf(w, "%s\t%.0f%%\t%.0f%%\t\n", s, share[s]*100, solvShare[s]*100)
	}
	w.Flush()
}

func tw() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}
