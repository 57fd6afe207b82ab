package placer

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"lemur/internal/hw"
)

// costChain is a cheap two-NF chain, the shape lemurd's reconcile benchmark
// admits and retires.
func costChain(id int) string {
	return fmt.Sprintf("chain c%d {\n  slo { tmin = 500Mbps  tmax = 100Gbps }\n  aggregate { src = 10.%d.0.0/16 }\n"+
		"  mon0 = Monitor()\n  fwd0 = IPv4Fwd()\n  mon0 -> fwd0\n}\n", id, id%250)
}

// callCost is what one call of f allocates, objects and bytes, averaged over
// runs calls after one warm-up call, on one P like testing.AllocsPerRun.
func callCost(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestReconfigureCostFlatInRetiredSlots: what an admission or a retirement
// costs the incremental door depends on the live chains, not on how many
// slots were ever admitted. Five live chains at 5 slots and at 261 (256 of
// them retired): a one-chain admit allocates no more objects at 261 slots
// than at 5 (ten spare) and under 200 KB, and a one-chain retire no more than
// 47 objects at either. A rate LP with a column and a row per slot, or a
// chain prep rebuilt over every slot per admission, took the admit from 145
// to 2 216 objects and from 15 KB to 1.9 MB.
func TestReconfigureCostFlatInRetiredSlots(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops the LP tableau at random under the race detector")
	}
	const live, slots = 5, 261
	var src strings.Builder
	for id := 0; id <= slots; id++ {
		src.WriteString(costChain(id))
	}
	all := mustInput(t, hw.NewPaperTestbed(hw.WithServers(4)), src.String())
	all.HeadroomCores = 2

	// measure returns the cost of admitting slot len(in.Chains) and of
	// retiring live slot first, each on top of cur.
	type cost struct{ admitAllocs, admitBytes, retireAllocs float64 }
	measure := func(cur *Result, in *Input, first int) cost {
		t.Helper()
		n := len(in.Chains)
		admit := func() {
			grown := *in // carries in's prep, as lemurd's admission copy does
			grown.Chains = all.Chains[: n+1 : n+1]
			if rep, err := Reconfigure(cur, &grown, Delta{Admit: []int{n}}); err != nil || rep.Outcome != AdmitIncremental {
				t.Fatalf("admit at %d slots: %v %v", n, err, rep)
			}
		}
		retire := func() {
			if rep, err := Reconfigure(cur, in, Delta{Retire: []int{first}}); err != nil || rep.Outcome != AdmitIncremental {
				t.Fatalf("retire at %d slots: %v %v", n, err, rep)
			}
		}
		var c cost
		c.admitAllocs, c.admitBytes = callCost(20, admit)
		c.retireAllocs, _ = callCost(20, retire)
		return c
	}

	in := prefixInput(all, live)
	cur, err := Place(SchemeLemur, in)
	if err != nil || !cur.Feasible {
		t.Fatalf("fixture: %v %v", err, cur)
	}
	small := measure(cur, in, 0)

	// Churn to 261 slots: each step admits the next slot and retires the
	// oldest live one, so five chains stay live.
	for n := live; n < slots; n++ {
		grown := *in
		grown.Chains = all.Chains[: n+1 : n+1]
		rep, err := Reconfigure(cur, &grown, Delta{Admit: []int{n}, Retire: []int{n - live}})
		if err != nil || rep.Outcome != AdmitIncremental {
			t.Fatalf("churn step to %d slots: %v %v", n+1, err, rep)
		}
		cur, in = rep.Result, &grown
	}
	if cur.ActiveChains() != live || len(in.Chains) != slots {
		t.Fatalf("fixture: %d live chains over %d slots", cur.ActiveChains(), len(in.Chains))
	}
	large := measure(cur, in, slots-live)

	t.Logf("admit: %.0f → %.0f objects, %.0f → %.0f bytes; retire: %.0f → %.0f objects (%d → %d slots)",
		small.admitAllocs, large.admitAllocs, small.admitBytes, large.admitBytes,
		small.retireAllocs, large.retireAllocs, live, slots)
	if large.admitAllocs > small.admitAllocs+10 {
		t.Errorf("an admission at %d slots allocates %.0f objects, at %d slots %.0f: cost grows with retired slots",
			slots, large.admitAllocs, live, small.admitAllocs)
	}
	if large.admitBytes > 200<<10 {
		t.Errorf("an admission at %d slots allocates %.0f bytes, want at most 200 KB", slots, large.admitBytes)
	}
	for _, c := range []cost{small, large} {
		if c.retireAllocs > 47 {
			t.Errorf("a retirement allocates %.0f objects, want at most 47", c.retireAllocs)
		}
	}
}
