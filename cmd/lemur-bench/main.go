// Command lemur-bench regenerates the evaluation as text. -paper prints the
// paper's §5 (Figures 2 and 3, Tables 3 and 4, §5.2 and §5.3) in the form of
// internal/experiments/testdata/paper.golden, and the sweeps beyond the paper
// in the form of testdata/beyond.golden, byte for byte. Every section it
// prints is in one of those two files, and none of it reads a clock; time
// is bench/'s measurement:
//
//	lemur-bench -paper all          # every §5 section, in the golden's order
//	lemur-bench -paper 2a           # one section: 2a..2f feasibility 3a 3b 3c
//	                                # table3 table4 extreme sensitivity latency
//	                                # loc scaling
//	lemur-bench -paper beyond       # deadline sim failover churn reconcile
//	                                # place-scale scale, as beyond.golden
//	lemur-bench -paper scale        # one sweep: any of those
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lemur/internal/experiments"
	"lemur/internal/hw"
	"lemur/internal/obs"
	"lemur/internal/pisa"
)

func main() {
	var (
		paper = flag.String("paper", "", "print a section of the evaluation: all (the paper's §5), beyond (the sweeps beyond it), or one of "+
			strings.Join(append(experiments.PaperSections(), experiments.BeyondSections()...), " "))
		metrics    = flag.String("metrics-out", "", "write a metrics snapshot to this JSON path (plus .prom alongside)")
		parallel   = flag.Int("parallel", 0, "worker count for experiment cells and placer candidate evaluation (0 = GOMAXPROCS cells, serial placer)")
		simWorkers = flag.Int("sim-workers", 1, "worker shards per simulation run of the deadline, sim, failover and scale sections (output is byte-identical at any value)")
	)
	flag.Parse()
	if *paper == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *simWorkers < 1 {
		fatal(fmt.Errorf("-sim-workers must be a positive worker count, got %d", *simWorkers))
	}
	r := experiments.NewRunner(hw.NewPaperTestbed())
	r.Parallel = *parallel
	r.SimWorkers = *simWorkers
	if *metrics != "" {
		obs.Enable()
		metricsPath = *metrics
		// Walk real frames through every deployment so the per-platform
		// packet counters in the snapshot are live, not zero.
		r.VerifyPackets = 100
	}
	if err := r.WritePaper(os.Stdout, *paper); err != nil {
		fatal(err)
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
