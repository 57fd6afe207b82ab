package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	runtimepkg "runtime"
	"time"

	"lemur/internal/runtime"
)

// The cores sweep: ONE simulation run — the flow-scale curve's heaviest
// point — executed at increasing SimConfig.Workers, on a fresh deployment
// per cell so no NF or queue state leaks between runs. Cells run strictly
// sequentially (this is the one sweep where wall clock is the measurement),
// and every cell's SimResult must be byte-identical to the serial cell's —
// the sweep hard-fails otherwise, so a published curve is also a
// determinism proof.

// CoresCell is one worker-count cell of a cores-vs-throughput curve.
type CoresCell struct {
	// Workers is the requested SimConfig.Workers for this cell.
	Workers int
	// Packets is the number of packets injected during the run.
	Packets int
	// WallNs is the cell's wall-clock simulation time, excluding placement
	// and compilation.
	WallNs int64
	// PktsPerSec is Packets divided by the wall-clock run time.
	PktsPerSec float64
	// Speedup is this cell's PktsPerSec over the first (serial) cell's.
	Speedup float64
	// AllocsPerPkt is heap allocations during the run divided by Packets.
	AllocsPerPkt float64
	// Sim is the run's result — byte-identical across all cells by
	// construction (the sweep fails otherwise).
	Sim *runtime.SimResult
}

// CoresSweep places one chain set once (stateful classes pinned to servers,
// as in ScaleSweep), then simulates the same flow-scaled point once per
// entry of workerCounts, sequentially, each on its own freshly compiled
// deployment. It returns an error if any cell's SimResult differs from the
// first cell's by even a byte — the parallel engine's determinism contract
// is part of the measurement.
func (r *Runner) CoresSweep(chainIdxs []int, delta float64, flows, targetPackets int,
	workerCounts []int, cfg runtime.SimConfig) ([]CoresCell, error) {
	if flows <= 0 {
		return nil, fmt.Errorf("experiments: coressweep: non-positive flow count %d", flows)
	}
	if len(workerCounts) == 0 {
		return nil, fmt.Errorf("experiments: coressweep: no worker counts")
	}
	for _, w := range workerCounts {
		if w < 1 {
			return nil, fmt.Errorf("experiments: coressweep: non-positive worker count %d", w)
		}
	}

	fs, err := r.placeFlowScale("coressweep", chainIdxs, delta)
	if err != nil {
		return nil, err
	}
	base := fs.config(cfg, flows, targetPackets)

	cells := make([]CoresCell, len(workerCounts))
	var want []byte
	for i, w := range workerCounts {
		tb, err := r.deploy(fs.in, fs.res)
		if err != nil {
			return nil, fmt.Errorf("experiments: coressweep workers=%d: %w", w, err)
		}
		pcfg := base
		pcfg.Workers = w

		var ms0, ms1 runtimepkg.MemStats
		runtimepkg.GC()
		runtimepkg.ReadMemStats(&ms0)
		t0 := time.Now()
		sim, err := tb.Simulate(fs.res.ChainRates, pcfg)
		wall := time.Since(t0)
		runtimepkg.ReadMemStats(&ms1)
		if err != nil {
			return nil, fmt.Errorf("experiments: coressweep workers=%d: %w", w, err)
		}

		got, err := json.Marshal(sim)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			want = got
		} else if !bytes.Equal(want, got) {
			return nil, fmt.Errorf("experiments: coressweep: SimResult at workers=%d diverged from workers=%d (determinism violation)",
				w, workerCounts[0])
		}

		cell := CoresCell{Workers: w, WallNs: wall.Nanoseconds(), Sim: sim}
		for _, n := range sim.Injected {
			cell.Packets += n
		}
		if wall > 0 && cell.Packets > 0 {
			cell.PktsPerSec = float64(cell.Packets) / wall.Seconds()
		}
		if cell.Packets > 0 {
			cell.AllocsPerPkt = float64(ms1.Mallocs-ms0.Mallocs) / float64(cell.Packets)
		}
		if base := cells[0].PktsPerSec; i > 0 && base > 0 {
			cell.Speedup = cell.PktsPerSec / base
		} else if i == 0 {
			cell.Speedup = 1
		}
		cells[i] = cell
	}
	return cells, nil
}

// DefaultCoresCounts is the cores section's worker axis.
func DefaultCoresCounts() []int { return []int{1, 2, 4, 8} }
