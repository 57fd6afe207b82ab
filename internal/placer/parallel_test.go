package placer

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"lemur/internal/nfgraph"
	"lemur/internal/nfspec"
	"lemur/internal/pisa"
	"lemur/internal/profile"
)

// canonResult serializes every decision a placement makes — assignment,
// breaks, subgroup structure, core counts, rates, stages, feasibility and
// reason — so two Results can be compared byte-for-byte.
func canonResult(in *Input, res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "feasible=%v reason=%q stages=%d marginal=%.6f agg=%.6f\n",
		res.Feasible, res.Reason, res.Stages, res.Marginal, res.PredictedAggregate)
	for ci, g := range in.Chains {
		if ci < len(res.ChainRates) {
			fmt.Fprintf(&b, "rate[%d]=%.6f\n", ci, res.ChainRates[ci])
		}
		for _, n := range g.Order {
			a, ok := res.Assign[n]
			fmt.Fprintf(&b, "assign c%d/%s=%v/%v/%s break=%v\n",
				ci, n.Name(), ok, a.Platform, a.Device, res.Breaks[n])
		}
	}
	var subs []string
	for _, sg := range res.Subgroups {
		subs = append(subs, fmt.Sprintf("sub %s srv=%s cores=%d w=%.6f cyc=%.3f repl=%v",
			sg.Name(), sg.Server, sg.Cores, sg.Weight, sg.Cycles, sg.Replicable))
	}
	sort.Strings(subs)
	b.WriteString(strings.Join(subs, "\n"))
	return b.String()
}

func buildRandomInput(t *testing.T, rng *rand.Rand) *Input {
	t.Helper()
	nChains := 1 + rng.Intn(3)
	src := ""
	for c := 0; c < nChains; c++ {
		src += randomChainSpec(rng, c)
	}
	chains, err := nfspec.Parse(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	in := &Input{
		Topo: randomTopology(rng), DB: profile.DefaultDB(), Restrict: evalRestrict,
		// Keep Optimal tractable across a 100+ trial sweep.
		BruteForceBudget: 200,
	}
	for _, ch := range chains {
		g, err := nfgraph.Build(ch)
		if err != nil {
			t.Fatal(err)
		}
		in.Chains = append(in.Chains, g)
	}
	return in
}

// TestParallelMatchesSerialProperty: for every scheme in Schemes(), placement
// with Parallel=2, 4 and 8 (and a deliberately odd Parallel=3) must be byte-identical
// to serial placement across ≥100 randomized topologies and chain sets —
// the deterministic-reduce contract of the parallel engine.
func TestParallelMatchesSerialProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	schemes := Schemes()
	trials := 120
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		in := buildRandomInput(t, rng)
		scheme := schemes[trial%len(schemes)]

		serialIn := *in
		serialIn.Parallel = 1
		serial, err := Place(scheme, &serialIn)
		if err != nil {
			t.Fatalf("trial %d %s serial: %v", trial, scheme, err)
		}
		want := canonResult(in, serial)

		for _, workers := range []int{2, 3, 4, 8} {
			parIn := *in
			parIn.Parallel = workers
			par, err := Place(scheme, &parIn)
			if err != nil {
				t.Fatalf("trial %d %s parallel=%d: %v", trial, scheme, workers, err)
			}
			if got := canonResult(in, par); got != want {
				t.Fatalf("trial %d %s: parallel=%d result differs from serial\n--- serial ---\n%s\n--- parallel ---\n%s",
					trial, scheme, workers, want, got)
			}
		}
	}
}

// TestWarmCacheMatchesColdProperty: placements computed against a cold
// shared PISA compile cache must equal placements computed fully warm — the
// cached verdicts may never change a decision.
func TestWarmCacheMatchesColdProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		in := buildRandomInput(t, rng)
		scheme := Schemes()[trial%len(Schemes())]

		pisa.SharedCache().Reset()
		cold, err := Place(scheme, in)
		if err != nil {
			t.Fatalf("trial %d %s cold: %v", trial, scheme, err)
		}
		warm, err := Place(scheme, in)
		if err != nil {
			t.Fatalf("trial %d %s warm: %v", trial, scheme, err)
		}
		if c, w := canonResult(in, cold), canonResult(in, warm); c != w {
			t.Fatalf("trial %d %s: warm-cache result differs from cold\n--- cold ---\n%s\n--- warm ---\n%s",
				trial, scheme, c, w)
		}
	}
	// The verdict cache must actually have been exercised.
	if st := pisa.SharedCache().Stats(); st.Hits == 0 {
		t.Errorf("warm passes produced no cache hits: pisa=%+v", st)
	}
}
