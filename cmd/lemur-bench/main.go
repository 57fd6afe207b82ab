// Command lemur-bench regenerates the paper's evaluation as text output.
// -paper prints §5 (Figures 2 and 3, Tables 3 and 4, §5.2 and §5.3) in the
// form of internal/experiments/testdata/paper.golden, byte for byte; the
// other flags run sweeps beyond the paper:
//
//	lemur-bench -paper all          # every §5 section, in the golden's order
//	lemur-bench -paper 2a           # one section: 2a..2f feasibility 3a 3b 3c
//	                                # table3 table4 extreme sensitivity latency
//	                                # loc scaling
//	lemur-bench -deadline           # EDF vs round-robin deadline compliance
//	lemur-bench -failover           # SLO compliance under k server failures
//	lemur-bench -churn              # admission capacity: incremental vs repack
//	lemur-bench -reconcile          # lemurd control-plane convergence table
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"lemur/internal/experiments"
	"lemur/internal/hw"
	"lemur/internal/obs"
	"lemur/internal/pisa"
)

func main() {
	var (
		paper      = flag.String("paper", "", "print a §5 section of the paper's evaluation: all, or one of "+strings.Join(experiments.PaperSections(), " "))
		deadline   = flag.Bool("deadline", false, "EDF vs round-robin deadline-compliance sweep over the nine-hop deadline chain")
		metrics    = flag.String("metrics-out", "", "write a metrics snapshot to this JSON path (plus .prom alongside)")
		parallel   = flag.Int("parallel", 0, "worker count for experiment cells and placer candidate evaluation (0 = GOMAXPROCS cells, serial placer)")
		sim        = flag.Bool("sim", false, "parallel load-factor sweep with the discrete-time dataplane simulator")
		scale      = flag.Bool("scale", false, "throughput-vs-flow-count curve: 1k to 1M concurrent flows through the stateful dataplane")
		failover   = flag.Bool("failover", false, "SLO compliance under k server failures (parallel fault-injection sweep)")
		churnBench = flag.Bool("churn", false, "admission-capacity sweep: chains admitted incrementally until first refusal (parallel)")
		simWorkers = flag.Int("sim-workers", 1, "worker shards per simulation run for -sim/-scale/-failover/-deadline (results are byte-identical at any value)")
		cores      = flag.Bool("cores", false, "cores-vs-throughput curve: the flow-scaled point rerun at 1/2/4/8 worker shards, sequentially")
		coresFlows = flag.Int("cores-flows", 1_000_000, "with -cores: concurrent-flow population for the measured point")
		coresPkts  = flag.Int("cores-pkts", 10_000_000, "with -cores: target packet count for the measured point")
		placeScale = flag.Bool("place-scale", false, "placement solve-time curve: 4..256 servers × chain counts, all schemes, with branch-and-bound search stats")
		reconcile  = flag.Bool("reconcile", false, "lemurd control-plane convergence sweep: scripted reconcile scenarios run to convergence on a fake clock")
		reconIvl   = flag.Duration("reconcile-interval", 100*time.Millisecond, "with -reconcile: the daemons' reconcile period; must be positive")
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
	case *paper != "":
		if err := b.newRunner(hw.NewPaperTestbed()).WritePaper(os.Stdout, *paper); err != nil {
			fatal(err)
		}
	case *deadline:
		b.runLatencySweep()
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

func tw() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}
