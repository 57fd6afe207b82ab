package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/runtime"
)

// TestFailoverSweepParallelIdentical: the k-failures sweep must be
// byte-identical at any worker count — the same determinism contract as
// SimSweep, here covering the full failover path (crash, Replace, Rewire,
// post-SLO accounting) running concurrently on independent deployments.
func TestFailoverSweepParallelIdentical(t *testing.T) {
	topo := hw.NewPaperTestbed(hw.WithServers(2))
	var servers []string
	for _, s := range topo.Servers {
		servers = append(servers, s.Name)
	}
	points := DefaultFailoverPoints(servers, 7)
	// Scale 50 keeps every chain's per-step cycle budget above its
	// per-packet cost, so even the low-rate expensive chains make progress.
	cfg := runtime.SimConfig{DurationSec: 0.25, Scale: 50}

	run := func(workers int) []byte {
		r := NewRunner(hw.NewPaperTestbed(hw.WithServers(2)))
		r.Parallel = workers
		cells, err := r.FailoverSweep([]int{1, 2, 3}, 0.5, points, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(cells)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	serial := run(1)
	parallel := run(4)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("failover sweep differs across worker counts:\n serial:   %s\n parallel: %s", serial, parallel)
	}
}

// TestFailoverSweepCompliance checks the shape of the "SLO compliance under
// k failures" table: the k=0 baseline is fully compliant and every cell
// reports one compliance verdict per chain.
func TestFailoverSweepCompliance(t *testing.T) {
	topo := hw.NewPaperTestbed(hw.WithServers(2))
	var servers []string
	for _, s := range topo.Servers {
		servers = append(servers, s.Name)
	}
	points := DefaultFailoverPoints(servers, 3)
	if len(points) != len(servers) || len(points[0].Crash) != 0 || len(points[len(points)-1].Crash) != len(servers)-1 {
		t.Fatalf("default points malformed: %+v", points)
	}

	r := NewRunner(topo)
	r.Parallel = 2
	cells, err := r.FailoverSweep([]int{1, 2, 3}, 0.5, points, runtime.SimConfig{DurationSec: 0.25, Scale: 50})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		if c.TotalChains != 3 {
			t.Fatalf("cell %d covers %d chains, want 3", i, c.TotalChains)
		}
		if c.CompliantChains < 0 || c.CompliantChains > c.TotalChains {
			t.Fatalf("cell %d compliance out of range: %d/%d", i, c.CompliantChains, c.TotalChains)
		}
	}
	if cells[0].Sim.Failover != nil {
		t.Error("k=0 baseline must run fault-free")
	}
	if cells[0].CompliantChains != cells[0].TotalChains {
		t.Errorf("k=0 baseline not fully compliant: %d/%d", cells[0].CompliantChains, cells[0].TotalChains)
	}
	for _, c := range cells[1:] {
		if c.Sim.Failover == nil {
			t.Fatalf("k=%d cell has no failover report", len(c.Point.Crash))
		}
		if len(c.Sim.Failover.Events) != len(c.Point.Crash) {
			t.Errorf("k=%d cell fired %d events", len(c.Point.Crash), len(c.Sim.Failover.Events))
		}
	}
}

// TestFailoverSweepErrorDeterministic: errors reduce by point index, like
// results. Two points that both fail (their crash targets do not exist) must
// always report point 0, however the four workers happen to be scheduled.
func TestFailoverSweepErrorDeterministic(t *testing.T) {
	points := []FailoverPoint{
		{Crash: []string{"ghost-a"}, AtSec: 0.05, Seed: 1},
		{Crash: []string{"ghost-b"}, AtSec: 0.05, Seed: 2},
	}
	r := NewRunner(hw.NewPaperTestbed(hw.WithServers(2)))
	r.Parallel = 4
	for run := 0; run < 50; run++ {
		_, err := r.FailoverSweep([]int{2}, 0.5, points, runtime.SimConfig{DurationSec: 0.1, Scale: 50})
		if err == nil || !strings.Contains(err.Error(), "failover point 0") || !strings.Contains(err.Error(), "ghost-a") {
			t.Fatalf("run %d: err = %v, want failover point 0 (ghost-a)", run, err)
		}
	}
}
