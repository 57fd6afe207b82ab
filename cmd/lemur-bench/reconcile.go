package main

import (
	"fmt"
	"time"

	"lemur/internal/experiments"
)

// reconcileReport is the -reconcile-out JSON document (BENCH_8.json): the
// lemurd control-plane convergence table — one row per scripted reconcile
// scenario, each run to convergence on a fake clock. Everything except the
// rows' wall_ns fields is deterministic at any -parallel value.
type reconcileReport struct {
	Parallel    int                          `json:"parallel"`
	IntervalSec float64                      `json:"interval_sec"`
	Meta        runMeta                      `json:"meta"`
	Rows        []experiments.ReconcilePoint `json:"rows"`
}

// runReconcile is the -reconcile command: run the control-plane convergence
// sweep at the given reconcile interval, print the table, and optionally
// write BENCH_8.json.
func (b bench) runReconcile(interval time.Duration, path string) {
	points, err := experiments.ReconcileSweep(interval, b.parallel)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("lemurd reconcile convergence at interval %v (fake clock)\n", interval)
	w := tw()
	fmt.Fprintln(w, "scenario\tbase\tops\tticks\tconverge\tpinned\treconciles\tapplies\tbackoff\trejected\t")
	for _, p := range points {
		conv := fmt.Sprintf("%.1fs", p.ConvergeSimSec)
		if !p.Converged {
			conv = "DIVERGED"
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\t\n",
			p.Scenario, p.BaseChains, p.Ops, p.Ticks, conv, p.PinnedSubgroups,
			p.Reconciles, p.Applies, p.BackoffRetries, p.RejectedSpecs)
	}
	w.Flush()

	if path == "" {
		return
	}
	writeJSON(path, reconcileReport{
		Parallel:    b.parallel,
		IntervalSec: interval.Seconds(),
		Meta:        newRunMeta(b.parallel, 0),
		Rows:        points,
	})
	fmt.Printf("wrote %s\n", path)
}
