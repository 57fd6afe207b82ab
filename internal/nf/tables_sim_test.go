package nf_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/metacompiler"
	"lemur/internal/nf"
	"lemur/internal/nfgraph"
	"lemur/internal/nfspec"
	"lemur/internal/obs"
	"lemur/internal/placer"
	"lemur/internal/profile"
	"lemur/internal/runtime"
)

// The simulator-level half of the sharded/reference identity property lives
// here, in an external test package, because it needs both the unexported
// reference tables (through WithReferenceTables) and the packages above nf
// (placer, metacompiler, runtime), which an in-package test cannot import.
// randomStatefulSpec, compileRandom and runSim are copies of the helpers the
// engine-identity tests in internal/runtime keep using.

// randomStatefulSpec builds a random linear chain biased toward the stateful
// NFs with deliberately small table caps, so FlowScale traffic pushes every
// table past capacity — eviction, rotation, and NAT exhaustion all fire —
// instead of idling below the default caps.
func randomStatefulSpec(rng *rand.Rand, idx int) string {
	stateful := []func() string{
		func() string { return fmt.Sprintf("NAT(entries=%d)", 16+rng.Intn(80)) },
		func() string { return fmt.Sprintf("Monitor(max_flows=%d)", 16+rng.Intn(120)) },
		func() string { return fmt.Sprintf("Dedup(chunk=16, cache=%d)", 8+rng.Intn(48)) },
		func() string {
			return fmt.Sprintf("LB(n_backends=%d, affinity=%d)", 2+rng.Intn(4), 16+rng.Intn(100))
		},
	}
	stateless := []string{"ACL", "Match", "Limiter", "Tunnel", "Detunnel", "UrlFilter"}
	n := 2 + rng.Intn(3)
	spec := fmt.Sprintf("chain fs%d {\n  slo { tmin = %dMbps  tmax = 100Gbps }\n  aggregate { src = 10.%d.0.0/16 }\n",
		idx, 100+rng.Intn(1500), idx)
	names := make([]string, 0, n+1)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("n%d", i)
		// Two stateful draws for every stateless one.
		if rng.Intn(3) < 2 {
			spec += fmt.Sprintf("  %s = %s\n", name, stateful[rng.Intn(len(stateful))]())
		} else {
			spec += fmt.Sprintf("  %s = %s()\n", name, stateless[rng.Intn(len(stateless))])
		}
		names = append(names, name)
	}
	spec += "  fwd = IPv4Fwd()\n"
	names = append(names, "fwd")
	spec += "  " + names[0]
	for _, nm := range names[1:] {
		spec += " -> " + nm
	}
	return spec + "\n}\n"
}

// compileRandom places and compiles one random chain set, returning a fresh
// deployment (or nil when the placement is infeasible for the drawn set).
func compileRandom(t *testing.T, src string) *metacompiler.Deployment {
	t.Helper()
	chains, err := nfspec.Parse(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	in := &placer.Input{Topo: hw.NewPaperTestbed(), DB: profile.DefaultDB(),
		Restrict: map[string][]hw.Platform{"IPv4Fwd": {hw.PISA}}} // Table 3's footnote
	for _, c := range chains {
		g, err := nfgraph.Build(c)
		if err != nil {
			t.Fatal(err)
		}
		in.Chains = append(in.Chains, g)
	}
	res, err := placer.Place(placer.SchemeLemur, in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		return nil
	}
	d, err := metacompiler.Compile(in, res)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// runSim simulates a freshly compiled deployment under a clean metrics
// registry and returns the marshalled SimResult plus the metrics snapshot
// bytes.
func runSim(t *testing.T, d *metacompiler.Deployment, offered []float64, cfg runtime.SimConfig) ([]byte, []byte) {
	t.Helper()
	reg := obs.Default()
	reg.Reset()
	sim, err := runtime.New(d, 42).Simulate(offered, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := json.Marshal(sim)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return stats, buf.Bytes()
}

// addPressure sums a metrics snapshot's table-pressure counters into sums:
// FIFO evictions by NF class (for Dedup that is cache rotation) and NAT
// port/entry exhaustion under "NAT".
func addPressure(t *testing.T, sums map[string]uint64, snapshot []byte) {
	t.Helper()
	var snap struct {
		Counters []struct {
			Name   string
			Labels []struct{ Key, Value string }
			Value  uint64
		}
	}
	if err := json.Unmarshal(snapshot, &snap); err != nil {
		t.Fatal(err)
	}
	for _, c := range snap.Counters {
		switch c.Name {
		case "lemur_nf_nat_exhausted_total":
			sums["NAT"] += c.Value
		case "lemur_nf_state_evictions_total":
			for _, l := range c.Labels {
				if l.Key == "class" {
					sums[l.Value] += c.Value
				}
			}
		}
	}
}

// TestShardedTablesMatchReference is the table-backend identity property:
// the same random deployment compiled once over the sharded arena tables and
// once over the retained map-backed references must produce byte-identical
// SimResults AND metrics snapshots — across 50+ random stateful topologies ×
// seeds, under both FlowScale traffic patterns (immortal flow populations
// and per-second churn), with table caps small enough that FIFO eviction,
// Dedup rotation, and NAT port exhaustion all run hot.
func TestShardedTablesMatchReference(t *testing.T) {
	reg := obs.Default()
	reg.Enable()
	t.Cleanup(func() {
		reg.Disable()
		reg.Reset()
	})

	rng := rand.New(rand.NewSource(606))
	factors := []float64{0.8, 1.1, 1.6}
	cases, skipped := 0, 0
	pressure := map[string]uint64{} // summed over the sharded runs, by class
	for trial := 0; cases < 52 && trial < 130; trial++ {
		nChains := 1 + rng.Intn(2)
		src := ""
		for c := 0; c < nChains; c++ {
			src += randomStatefulSpec(rng, c)
		}
		dShard := compileRandom(t, src)
		if dShard == nil {
			skipped++
			continue
		}
		var dRef *metacompiler.Deployment
		nf.WithReferenceTables(func() { dRef = compileRandom(t, src) })
		cases++

		offered := make([]float64, len(dShard.Result.ChainRates))
		for i, r := range dShard.Result.ChainRates {
			offered[i] = r * factors[(trial+i)%len(factors)]
		}
		cfg := runtime.SimConfig{Seed: int64(2000 + trial), DurationSec: 0.06}
		// Alternate the two FlowScale traffic patterns: a pre-generated
		// immortal population, and churn arriving at FlowScale flows/sec.
		cfg.FlowScale = 200 + rng.Intn(1800)
		cfg.FlowChurn = trial%2 == 1

		shardStats, shardMetrics := runSim(t, dShard, offered, cfg)
		refStats, refMetrics := runSim(t, dRef, offered, cfg)

		if !bytes.Equal(shardStats, refStats) {
			t.Fatalf("trial %d (scale %d churn %v): SimResult diverged\nsharded: %s\nref:     %s\nspec:\n%s",
				trial, cfg.FlowScale, cfg.FlowChurn, shardStats, refStats, src)
		}
		if !bytes.Equal(shardMetrics, refMetrics) {
			t.Fatalf("trial %d (scale %d churn %v): metrics diverged (sharded %d bytes, ref %d bytes)\nspec:\n%s",
				trial, cfg.FlowScale, cfg.FlowChurn, len(shardMetrics), len(refMetrics), src)
		}
		addPressure(t, pressure, shardMetrics)
	}
	if cases < 50 {
		t.Fatalf("only %d feasible random cases (%d skipped); loosen the generator", cases, skipped)
	}
	// Dedup is absent on purpose: at the simulator's default Scale its
	// per-packet cost exceeds the credit a subgroup can bank (ROADMAP item 3),
	// so it never serves a packet here; TestShardedMatchesReference/Dedup
	// holds cache rotation at the NF level.
	for _, class := range []string{"NAT", "Monitor", "LB"} {
		if pressure[class] == 0 {
			t.Errorf("no %s table was pushed past its cap in %d cases: the identity is vacuous for it", class, cases)
		}
	}
	t.Logf("%d cases (%d skipped); evictions+exhaustions by class: %v", cases, skipped, pressure)
}
