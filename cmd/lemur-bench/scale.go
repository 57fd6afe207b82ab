package main

import (
	"fmt"
	runtimepkg "runtime"

	"lemur/internal/experiments"
	"lemur/internal/hw"
	"lemur/internal/runtime"
)

// scalePointOut is one flow-count point of the -scale-out JSON document.
type scalePointOut struct {
	Flows       int     `json:"flows"`
	Packets     int     `json:"packets"`
	DurationSec float64 `json:"sim_duration_sec"`
	PktsPerSec  float64 `json:"sim_pkts_per_sec"`
	DropRate    float64 `json:"drop_rate"`
	AvgDelayUs  float64 `json:"avg_queue_delay_us"`
	P99DelayUs  float64 `json:"p99_queue_delay_us"`
	// Per-chain goodput share (achieved/offered), indexed by chain slot —
	// the per-dataplane view of where state pressure bites.
	ChainGoodput []float64                  `json:"chain_goodput"`
	NFState      []experiments.NFTableState `json:"nf_state"`
}

// scaleReport is the -scale-out JSON document (BENCH_4.json).
type scaleReport struct {
	Benchmark    string          `json:"benchmark"`
	Meta         runMeta         `json:"meta"`
	Config       map[string]any  `json:"config"`
	Points       []scalePointOut `json:"points"`
	AllocsPerPkt float64         `json:"allocs_per_pkt,omitempty"`
	TotalNs      int64           `json:"total_ns"`
}

// runScale is the -scale command: the throughput-vs-flow-count curve.
// Chains {1,2,3,4} (every stateful NF class: NAT, Monitor, Dedup, LB, with
// the stateful classes pinned to servers) are placed once at δ=0.5, then
// simulated at 1k/10k/100k/1M pre-generated concurrent flows — the top
// point pushes ten million packets through million-flow state tables.
// Stdout is deterministic and byte-identical at any -parallel value;
// wall-clock throughput goes to the -scale-out JSON (meaningful when the
// cells run serially: -parallel 1).
func (b bench) runScale(outPath string) {
	r := b.newRunner(hw.NewPaperTestbed())
	points := experiments.DefaultScalePoints(11)

	var before, after runtimepkg.MemStats
	runtimepkg.ReadMemStats(&before)
	cells, err := r.ScaleSweep([]int{1, 2, 3, 4}, 0.5, points, runtime.SimConfig{Workers: b.simWorkers})
	runtimepkg.ReadMemStats(&after)
	if err != nil {
		fatal(err)
	}

	fmt.Println("flow-scale sweep: chains {1,2,3,4}, δ=0.5, stateful NFs on servers, flow count vs state pressure")
	w := tw()
	fmt.Fprintln(w, "flows\tpackets\tsim time\tdrop\tavg delay\tp99 delay\tNAT entries\texhausted\tevictions\t")
	for _, c := range cells {
		natEntries, exhausted, evicted := 0, uint64(0), uint64(0)
		for _, st := range c.NFState {
			if st.Class == "NAT" {
				natEntries += st.Entries
			}
			exhausted += st.Exhausted
			evicted += st.Evicted
		}
		fmt.Fprintf(w, "%d\t%d\t%.1fs\t%.2f%%\t%.1fus\t%.1fus\t%d\t%d\t%d\t\n",
			c.Point.Flows, c.Packets, c.DurationSec, c.DropRate*100,
			c.AvgDelaySec*1e6, c.P99DelaySec*1e6, natEntries, exhausted, evicted)
	}
	w.Flush()

	if outPath == "" {
		return
	}
	report := scaleReport{
		Benchmark: "lemur-bench -scale -scale-out (flow-scale throughput curve)",
		Meta:      newRunMeta(b.parallel, b.simWorkers),
		Config: map[string]any{
			"chains":    []int{1, 2, 3, 4},
			"delta":     0.5,
			"seed_base": 11,
			"restrict":  "NAT/Monitor/Dedup/LB pinned to servers (sharded state tables)",
			"scale":     1,
			"note":      "sim_pkts_per_sec is wall clock; generate with -parallel 1 for honest timings",
		},
	}
	var totalPkts int
	for _, c := range cells {
		totalPkts += c.Packets
		report.TotalNs += c.WallNs
		goodput := make([]float64, len(c.Sim.OfferedBps))
		for ci := range goodput {
			if c.Sim.OfferedBps[ci] > 0 {
				goodput[ci] = c.Sim.AchievedBps[ci] / c.Sim.OfferedBps[ci]
			}
		}
		report.Points = append(report.Points, scalePointOut{
			Flows:        c.Point.Flows,
			Packets:      c.Packets,
			DurationSec:  c.DurationSec,
			PktsPerSec:   float64(c.Packets) / (float64(c.WallNs) / 1e9),
			DropRate:     c.DropRate,
			AvgDelayUs:   c.AvgDelaySec * 1e6,
			P99DelayUs:   c.P99DelaySec * 1e6,
			ChainGoodput: goodput,
			NFState:      c.NFState,
		})
	}
	if b.parallel == 1 && totalPkts > 0 {
		report.AllocsPerPkt = float64(after.Mallocs-before.Mallocs) / float64(totalPkts)
	}
	writeJSON(outPath, report)
	fmt.Printf("wrote %s (%d points, %.2fs simulated wall clock)\n",
		outPath, len(report.Points), float64(report.TotalNs)/1e9)
}
