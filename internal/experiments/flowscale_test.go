package experiments

import (
	"testing"

	"lemur/internal/hw"
)

// TestScaleSweepStatePressure: growing the flow population three orders of
// magnitude past the NF table caps must show up as state pressure — NAT
// entries pinned at their cap with exhaustion drops, eviction churn on the
// capped affinity/cache tables — while the injected packet count stays on
// target. It runs the scale section's own grid; chains {2,3} carry NAT, LB
// and Dedup instances.
func TestScaleSweepStatePressure(t *testing.T) {
	r := NewRunner(hw.NewPaperTestbed())
	in, res, cells, err := r.scaleCells()
	if err != nil {
		t.Fatal(err)
	}
	sims, deps, err := r.simulateCells(in, res, cells)
	if err != nil {
		t.Fatal(err)
	}
	states := make([][]NFTableState, len(deps))
	drops := make([]float64, len(sims))
	for i := range sims {
		var packets int
		packets, drops[i] = dropShare(sims[i])
		if packets < scalePackets*3/4 || packets > scalePackets*3/2 {
			t.Errorf("cell %d injected %d packets, want ≈%d", i, packets, scalePackets)
		}
		states[i] = HarvestNFState(deps[i])
		if len(states[i]) == 0 {
			t.Fatalf("cell %d harvested no stateful NFs", i)
		}
		classes := map[string]bool{}
		for _, st := range states[i] {
			classes[st.Class] = true
		}
		for _, want := range []string{"NAT", "LB", "Dedup"} {
			if !classes[want] {
				t.Errorf("cell %d: no %s instance harvested: %+v", i, want, states[i])
			}
		}
	}

	// At 500 flows nothing is under pressure; at 200k flows the NAT tables
	// (12k-entry default) must be exhausting and dropping.
	var smallExh, bigExh uint64
	bigNATFull := false
	for _, st := range states[0] {
		smallExh += st.Exhausted
	}
	for _, st := range states[1] {
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
		t.Errorf("no NAT pinned at its 12000-entry cap: %+v", states[1])
	}
	if drops[1] <= drops[0] {
		t.Errorf("drop rate did not grow with flow count: %.4f -> %.4f", drops[0], drops[1])
	}
}
