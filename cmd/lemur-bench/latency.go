package main

import (
	"fmt"

	"lemur/internal/experiments"
	"lemur/internal/hw"
	"lemur/internal/placer"
	"lemur/internal/runtime"
)

// latencyReport is the -latency-out JSON document (BENCH_7.json): per-chain
// p99 queue delay and deadline-SLO compliance vs offered load, the EDF
// drain order against the round-robin baseline, across placement schemes.
// Everything in it is deterministic — byte-identical at any -parallel and
// -sim-workers value.
type latencyReport struct {
	Meta   runMeta                    `json:"meta"`
	Spec   experiments.LatencySpec    `json:"spec"`
	Curves []experiments.LatencyCurve `json:"curves"`
}

// runLatencySweep is the -latency-out command: the EDF-vs-round-robin
// deadline-compliance sweep over the nine-hop deadline chain (see
// experiments.LatencyChainSpec for why that shape), written as BENCH_7.json
// and summarized on stdout.
func (b bench) runLatencySweep(path string) {
	r := b.newRunner(hw.NewPaperTestbed())
	spec := experiments.DefaultLatencySpec
	schemes := []placer.Scheme{placer.SchemeLemur, placer.SchemeHWPreferred, placer.SchemeSWPreferred}
	points := experiments.DefaultLatencyPoints(1)
	curves, err := r.LatencySweep(spec, points, schemes,
		runtime.SimConfig{DurationSec: 1.0, Workers: b.simWorkers})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("deadline scheduling: t_min %s Gbps, d_max %.0f ms, EDF vs round-robin\n",
		gbps(spec.TMinBps), spec.DMaxSec*1e3)
	w := tw()
	fmt.Fprintln(w, "scheme\tload\tthroughput edf/rr\tworst p99 edf/rr\tcompliance edf/rr\t")
	for _, cv := range curves {
		if !cv.Feasible {
			fmt.Fprintf(w, "%s\t—\tinfeasible: %.48s\t\t\t\n", cv.Scheme, cv.Reason)
			continue
		}
		for _, cell := range cv.Cells {
			fmt.Fprintf(w, "%s\t%.1fx\t%s / %s Gbps\t%.1f / %.1f ms\t%.1f%% / %.1f%%\t\n",
				cv.Scheme, cell.Point.LoadFactor,
				gbps(sum(cell.EDF.AchievedBps)), gbps(sum(cell.RR.AchievedBps)),
				worst(cell.EDF.P99QueueDelaySec)*1e3, worst(cell.RR.P99QueueDelaySec)*1e3,
				worstCompliance(cell.EDF.DeadlineCompliance)*100,
				worstCompliance(cell.RR.DeadlineCompliance)*100)
		}
	}
	w.Flush()

	if path == "" {
		return
	}
	writeJSON(path, latencyReport{
		Meta:   newRunMeta(b.parallel, b.simWorkers),
		Spec:   spec,
		Curves: curves,
	})
	fmt.Printf("wrote %s\n", path)
}

func sum(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s
}

func worst(vs []float64) float64 {
	m := 0.0
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}

// worstCompliance is the minimum per-chain compliance — the chain closest
// to violating its deadline SLO.
func worstCompliance(vs []float64) float64 {
	if len(vs) == 0 {
		return 1
	}
	m := 1.0
	for _, v := range vs {
		if v < m {
			m = v
		}
	}
	return m
}
