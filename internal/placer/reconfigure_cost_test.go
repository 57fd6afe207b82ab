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

// meter sums what the calls it measures allocate, objects and bytes.
type meter struct{ mallocs, bytes uint64 }

func (m *meter) measure(f func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	m.mallocs += after.Mallocs - before.Mallocs
	m.bytes += after.TotalAlloc - before.TotalAlloc
}

// per is the meter's average over runs calls.
func (m *meter) per(runs int) (allocs, bytes float64) {
	return float64(m.mallocs) / float64(runs), float64(m.bytes) / float64(runs)
}

// callCost is what one call of f allocates, objects and bytes, averaged over
// runs calls after one warm-up call, on one P like testing.AllocsPerRun.
func callCost(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m meter
	for i := 0; i < runs; i++ {
		m.measure(f)
	}
	return m.per(runs)
}

// TestReconfigureCostFlatInRetiredSlots: what an admission or a retirement
// costs the incremental door depends on the live chains, not on how many
// slots were ever admitted. Five live chains at 5 slots and at 261 (256 of
// them retired), three kinds of call: an admission of the next slot on top
// of the last one (each admitted chain retired again, unmeasured), the same
// admission asked again from the same input (lemurd's retry after an
// admission refused for its new chains), and a one-chain retirement. At 261
// slots an admission of either kind allocates no more objects than at 5 (ten
// spare) and at most 40 KB, a retirement at most 47 objects and 16 KB. A rate
// LP with a column and a row per slot, or a chain prep rebuilt over every
// slot per admission, took the admission from 145 to 2 216 objects and from
// 15 KB to 1.9 MB; a chain prep copied per admission and an evaluation
// scratch built per call, to 111 KB, and the retirement to 29 KB.
func TestReconfigureCostFlatInRetiredSlots(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops the LP tableau at random under the race detector")
	}
	const live, slots, runs = 5, 261, 20
	var src strings.Builder
	for id := 0; id <= slots+runs; id++ {
		src.WriteString(costChain(id))
	}
	all := mustInput(t, hw.NewPaperTestbed(hw.WithServers(4)), src.String())
	all.HeadroomCores = 2

	type cost struct{ admitAllocs, admitBytes, retryAllocs, retryBytes, retireAllocs, retireBytes float64 }
	// measure returns the cost of the three calls on top of cur, retiring
	// live slot first.
	measure := func(cur *Result, in *Input, first int) cost {
		t.Helper()
		admit := func(cur *Result, in *Input) (*Result, *Input) {
			n := len(in.Chains)
			grown := *in // carries in's prep, as lemurd's admission copy does
			grown.Chains = all.Chains[: n+1 : n+1]
			rep, err := Reconfigure(cur, &grown, Delta{Admit: []int{n}})
			if err != nil || rep.Outcome != AdmitIncremental {
				t.Fatalf("admit at %d slots: %v %v", n, err, rep)
			}
			return rep.Result, &grown
		}
		retire := func(cur *Result, in *Input, ci int) *Result {
			rep, err := Reconfigure(cur, in, Delta{Retire: []int{ci}})
			if err != nil || rep.Outcome != AdmitIncremental {
				t.Fatalf("retire at %d slots: %v %v", len(in.Chains), err, rep)
			}
			return rep.Result
		}
		var c cost
		c.retryAllocs, c.retryBytes = callCost(runs, func() { admit(cur, in) })
		c.retireAllocs, c.retireBytes = callCost(runs, func() { retire(cur, in, first) })

		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var m meter
		for i := 0; i <= runs; i++ {
			var next *Result
			var grown *Input
			if i == 0 { // warm-up: the retry's prep, handed out again
				next, grown = admit(cur, in)
			} else {
				m.measure(func() { next, grown = admit(cur, in) })
			}
			cur, in = retire(next, grown, len(in.Chains)), grown
		}
		c.admitAllocs, c.admitBytes = m.per(runs)
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
	active := 0
	for ci := range cur.ChainRates {
		if !cur.IsRetired(ci) {
			active++
		}
	}
	if active != live || len(in.Chains) != slots {
		t.Fatalf("fixture: %d live chains over %d slots", active, len(in.Chains))
	}
	large := measure(cur, in, slots-live)

	t.Logf("admit: %.0f → %.0f objects, %.0f → %.0f bytes; retry: %.0f → %.0f objects, %.0f → %.0f bytes; "+
		"retire: %.0f → %.0f objects, %.0f → %.0f bytes (%d → %d slots)",
		small.admitAllocs, large.admitAllocs, small.admitBytes, large.admitBytes,
		small.retryAllocs, large.retryAllocs, small.retryBytes, large.retryBytes,
		small.retireAllocs, large.retireAllocs, small.retireBytes, large.retireBytes, live, slots)
	for _, a := range []struct {
		kind                     string
		small, large, largeBytes float64
	}{
		{"an admission", small.admitAllocs, large.admitAllocs, large.admitBytes},
		{"a retried admission", small.retryAllocs, large.retryAllocs, large.retryBytes},
	} {
		if a.large > a.small+10 {
			t.Errorf("%s at %d slots allocates %.0f objects, at %d slots %.0f: cost grows with retired slots",
				a.kind, slots, a.large, live, a.small)
		}
		if a.largeBytes > 40<<10 {
			t.Errorf("%s at %d slots allocates %.0f bytes, want at most 40 KB", a.kind, slots, a.largeBytes)
		}
	}
	for _, c := range []cost{small, large} {
		if c.retireAllocs > 47 {
			t.Errorf("a retirement allocates %.0f objects, want at most 47", c.retireAllocs)
		}
	}
	if large.retireBytes > 16<<10 {
		t.Errorf("a retirement at %d slots allocates %.0f bytes, want at most 16 KB", slots, large.retireBytes)
	}
}
