package main

import (
	"fmt"

	"lemur/internal/experiments"
	"lemur/internal/hw"
	"lemur/internal/runtime"
)

// coresPointOut is one worker-count point of the -cores-out JSON document.
type coresPointOut struct {
	Workers      int     `json:"workers"`
	Packets      int     `json:"packets"`
	WallNs       int64   `json:"wall_ns"`
	PktsPerSec   float64 `json:"sim_pkts_per_sec"`
	Speedup      float64 `json:"speedup_vs_serial"`
	AllocsPerPkt float64 `json:"allocs_per_pkt"`
}

// coresReport is the -cores-out JSON document (BENCH_5.json).
type coresReport struct {
	Benchmark string          `json:"benchmark"`
	Meta      runMeta         `json:"meta"`
	Config    map[string]any  `json:"config"`
	Points    []coresPointOut `json:"points"`
	// Identical records that every cell's SimResult was byte-identical to
	// the serial cell's — CoresSweep hard-fails otherwise, so a committed
	// report is also a determinism proof for the parallel engine.
	Identical bool  `json:"simresult_byte_identical"`
	TotalNs   int64 `json:"total_ns"`
}

// runCores is the -cores command: the cores-vs-throughput curve. One
// flow-scaled point — chains {1,2,3,4} at δ=0.5 on a widened rack, stateful
// NFs pinned to servers — is simulated once per worker count {1,2,4,8},
// strictly sequentially on fresh deployments, and every run's SimResult
// must match the serial run byte for byte. Wall-clock speedup is only
// meaningful when GOMAXPROCS/NumCPU (recorded in the report metadata) give
// the shards real cores to land on.
func (b bench) runCores(flows, targetPackets int, outPath string) {
	r := b.newRunner(hw.NewPaperTestbed(hw.WithServers(8)))
	counts := experiments.DefaultCoresCounts()
	cells, err := r.CoresSweep([]int{1, 2, 3, 4}, 0.5, flows, targetPackets, counts, runtime.SimConfig{})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("cores sweep: chains {1,2,3,4}, δ=0.5, %d flows, one run per worker count (SimResult byte-identical across all)\n", flows)
	w := tw()
	fmt.Fprintln(w, "workers\tpackets\twall\tpkts/sec\tspeedup\tallocs/pkt\t")
	for _, c := range cells {
		fmt.Fprintf(w, "%d\t%d\t%.2fs\t%.0f\t%.2fx\t%.3f\t\n",
			c.Workers, c.Packets, float64(c.WallNs)/1e9, c.PktsPerSec, c.Speedup, c.AllocsPerPkt)
	}
	w.Flush()

	if outPath == "" {
		return
	}
	report := coresReport{
		Benchmark: "lemur-bench -cores -cores-out (cores-vs-throughput curve, single flow-scaled run)",
		Meta:      newRunMeta(1, 0),
		Config: map[string]any{
			"chains":         []int{1, 2, 3, 4},
			"delta":          0.5,
			"servers":        8,
			"flows":          flows,
			"target_packets": targetPackets,
			"restrict":       "NAT/Monitor/Dedup/LB pinned to servers (sharded state tables)",
			"note":           "cells run sequentially; meta.sim_workers is 0 because the worker count is the swept axis (points[].workers); speedup needs GOMAXPROCS >= workers (see meta)",
		},
		Identical: true,
	}
	for _, c := range cells {
		report.TotalNs += c.WallNs
		report.Points = append(report.Points, coresPointOut{
			Workers:      c.Workers,
			Packets:      c.Packets,
			WallNs:       c.WallNs,
			PktsPerSec:   c.PktsPerSec,
			Speedup:      c.Speedup,
			AllocsPerPkt: c.AllocsPerPkt,
		})
	}
	writeJSON(outPath, report)
	fmt.Printf("wrote %s (%d points, %.2fs simulated wall clock)\n",
		outPath, len(report.Points), float64(report.TotalNs)/1e9)
}
