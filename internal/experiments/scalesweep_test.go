package experiments

import (
	"strings"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/runtime"
)

// TestScaleSweepRejectsBadFlows: the flow-scale sweep refuses non-positive
// flow populations up front instead of failing deep in a cell.
func TestScaleSweepRejectsBadFlows(t *testing.T) {
	r := NewRunner(hw.NewPaperTestbed())
	_, err := r.ScaleSweep([]int{2}, 0.5, []ScalePoint{{Flows: 0, TargetPackets: 100, Seed: 1}}, runtime.SimConfig{})
	if err == nil || !strings.Contains(err.Error(), "non-positive flow count") {
		t.Fatalf("err = %v, want non-positive flow count error", err)
	}
}

// TestScaleSweepStatePressure: growing the flow population three orders of
// magnitude past the NF table caps must show up as state pressure — NAT
// entries pinned at their cap with exhaustion drops, eviction churn on the
// capped affinity/cache tables — while the injected packet count stays on
// target. Chains {2,3} carry NAT, LB and Dedup instances.
func TestScaleSweepStatePressure(t *testing.T) {
	r := NewRunner(hw.NewPaperTestbed())
	points := []ScalePoint{
		{Flows: 500, TargetPackets: 40_000, Seed: 3},
		{Flows: 200_000, TargetPackets: 40_000, Seed: 3},
	}
	cells, err := r.ScaleSweep([]int{2, 3}, 0.5, points, runtime.SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		if c.Packets < 30_000 || c.Packets > 60_000 {
			t.Errorf("cell %d injected %d packets, want ≈40k", i, c.Packets)
		}
		if len(c.NFState) == 0 {
			t.Fatalf("cell %d harvested no stateful NFs", i)
		}
		classes := map[string]bool{}
		for _, st := range c.NFState {
			classes[st.Class] = true
		}
		for _, want := range []string{"NAT", "LB", "Dedup"} {
			if !classes[want] {
				t.Errorf("cell %d: no %s instance harvested: %+v", i, want, c.NFState)
			}
		}
	}

	// At 500 flows nothing is under pressure; at 200k flows the NAT tables
	// (12k-entry default) must be exhausting and dropping.
	small, big := cells[0], cells[1]
	var smallExh, bigExh uint64
	bigNATFull := false
	for _, st := range small.NFState {
		smallExh += st.Exhausted
	}
	for _, st := range big.NFState {
		bigExh += st.Exhausted
		if st.Class == "NAT" && st.Entries == 12000 {
			bigNATFull = true
		}
	}
	if smallExh != 0 {
		t.Errorf("500-flow run exhausted %d NAT allocations, want 0", smallExh)
	}
	if bigExh == 0 {
		t.Error("200k-flow run never exhausted a 12k-entry NAT")
	}
	if !bigNATFull {
		t.Errorf("no NAT pinned at its 12000-entry cap: %+v", big.NFState)
	}
	if big.DropRate <= small.DropRate {
		t.Errorf("drop rate did not grow with flow count: %.4f -> %.4f", small.DropRate, big.DropRate)
	}
}
