package runtime

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/nfspec"
	"lemur/internal/obs"
	"lemur/internal/packet"
	"lemur/internal/placer"
)

// randomStatefulSpec builds a random linear chain biased toward the stateful
// NFs with deliberately small table caps, so FlowScale traffic pushes every
// table past capacity — eviction, rotation, and NAT exhaustion all fire —
// instead of idling below the default caps.
func randomStatefulSpec(rng *rand.Rand, idx int) string {
	stateful := []func(i int) string{
		func(i int) string { return fmt.Sprintf("NAT(entries=%d)", 16+rng.Intn(80)) },
		func(i int) string { return fmt.Sprintf("Monitor(max_flows=%d)", 16+rng.Intn(120)) },
		func(i int) string { return fmt.Sprintf("Dedup(chunk=16, cache=%d)", 8+rng.Intn(48)) },
		func(i int) string {
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
			spec += fmt.Sprintf("  %s = %s\n", name, stateful[rng.Intn(len(stateful))](i))
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

// TestFlowScaleEnginesAgree extends the fast/reference engine identity to
// FlowScale traffic: the batched arena engine and the one-packet-at-a-time
// reference engine must stay byte-identical when chains draw from arena
// flow schedules instead of the legacy 40-flow generator.
func TestFlowScaleEnginesAgree(t *testing.T) {
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})

	rng := rand.New(rand.NewSource(77))
	blind := 0
	for trial := 0; trial < 6; trial++ {
		src := randomStatefulSpec(rng, 0)
		dRef := compileRandom(t, src)
		if dRef == nil {
			continue
		}
		dFast := compileRandom(t, src)
		blind += blindChains(dFast)
		offered := make([]float64, len(dRef.Result.ChainRates))
		for i, r := range dRef.Result.ChainRates {
			offered[i] = r * 1.2
		}
		cfg := SimConfig{Seed: int64(50 + trial), DurationSec: 0.05,
			FlowScale: 500, FlowChurn: trial%2 == 0}
		refStats, refMetrics := runSim(t, dRef, offered, cfg, (*Testbed).simulateReference)
		fastStats, fastMetrics := runSim(t, dFast, offered, cfg, (*Testbed).Simulate)
		if !bytes.Equal(refStats, fastStats) {
			t.Fatalf("trial %d: engines diverged under FlowScale\nref:  %s\nfast: %s\nspec:\n%s",
				trial, refStats, fastStats, src)
		}
		if !bytes.Equal(refMetrics, fastMetrics) {
			t.Fatalf("trial %d: engine metrics diverged under FlowScale\nspec:\n%s", trial, src)
		}
	}
	if blind == 0 {
		t.Fatal("no payload-blind chain ran: the headers-only frame source went unchecked")
	}
}

const millionFlowSpec = `
chain mf {
  slo { tmin = 2Gbps  tmax = 100Gbps }
  aggregate { src = 10.0.0.0/8 }
  mon0 = Monitor()
  nat0 = NAT(entries=45536)
  lb0 = LB()
  fwd0 = IPv4Fwd()
  mon0 -> nat0 -> lb0 -> fwd0
}`

// TestMillionFlowAllocBudget is the million-flow allocation guard: a
// stateful chain driven by a one-million-flow schedule must run at under
// 0.18 allocations per simulated packet, all of it per-run set-up. The
// schedule arenas, the NF table arenas (grown to cap on the warm-up run one
// segment at a time, no entry copied, then reused as insertion-order
// rings), and the engine's packet pools make
// the steady state allocation-free; this test pins that property so a
// regression anywhere in the stack — per-packet tuple synthesis, map
// fallback, arena churn — fails loudly.
func TestMillionFlowAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("million-flow smoke is not -short")
	}
	_, res, tb := deploy(t, hw.NewPaperTestbed(), millionFlowSpec, placer.SchemeLemur)
	offered := []float64{res.ChainRates[0] * 1.2}
	cfg := SimConfig{Seed: 5, DurationSec: 0.5, FlowScale: 1_000_000}

	var injected int
	allocs := testing.AllocsPerRun(3, func() {
		sim, err := tb.Simulate(offered, cfg)
		if err != nil {
			t.Fatal(err)
		}
		injected = sim.Injected[0]
	})
	if injected == 0 {
		t.Fatal("no packets injected")
	}
	perPkt := allocs / float64(injected)
	t.Logf("allocs/run %.0f, injected %d, allocs/pkt %.3f", allocs, injected, perPkt)
	const budget = 0.18 // 1.5x the 0.119 measured: per-run set-up over 980 packets
	if perPkt > budget {
		t.Fatalf("allocation regression: %.3f allocs/packet exceeds the %.2f budget", perPkt, budget)
	}
}

// TestWarmScheduleInvalidates is the stale-slot guard. A Testbed replays the
// schedule it kept for a chain only when the run asks for exactly that
// schedule: for every trafficgen.Config field newChainGen sets, and for the
// horizon, a warm Testbed that changes it gives what a fresh one gives, and
// one that changes nothing keeps its arena. The chains are stateless, so NF
// state is not a difference between a warm and a fresh Testbed. The slot
// wants the horizon equal, not merely covered: "horizon shorter" is the one
// case a stale slot would also pass (births past the horizon are never
// reached), and the slot does not lean on that.
func TestWarmScheduleInvalidates(t *testing.T) {
	base := SimConfig{Seed: 7, DurationSec: 0.1, Scale: 50, QueueCap: 512, FlowScale: 2000}
	churn := base
	churn.FlowChurn = true

	// What SimConfig feeds the key: Seed, Mode, Flows, NewFlowsSec, horizon.
	for _, tc := range []struct {
		name  string
		first SimConfig
		edit  func(*SimConfig)
	}{
		{"Seed", base, func(c *SimConfig) { c.Seed++ }},
		{"Flows", base, func(c *SimConfig) { c.FlowScale = 3000 }},
		{"Mode", base, func(c *SimConfig) { c.FlowChurn = true }},
		{"Mode back", churn, func(c *SimConfig) { c.FlowChurn = false }},
		{"NewFlowsSec", churn, func(c *SimConfig) { c.FlowScale = 1000 }},
		{"horizon longer", churn, func(c *SimConfig) { c.DurationSec = 0.25 }},
		{"horizon shorter", churn, func(c *SimConfig) { c.DurationSec = 0.05 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			second := tc.first
			tc.edit(&second)
			fresh, offered := deployStateless(t)
			want, err := fresh.Simulate(offered, second)
			if err != nil {
				t.Fatal(err)
			}
			warm, _ := deployStateless(t)
			if _, err := warm.Simulate(offered, tc.first); err != nil {
				t.Fatal(err)
			}
			got, err := warm.Simulate(offered, second)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(marshalSim(t, got), marshalSim(t, want)) {
				t.Fatalf("warm Testbed served a stale schedule\nwarm:  %s\nfresh: %s", marshalSim(t, got), marshalSim(t, want))
			}
		})
	}

	// What the chain's aggregate feeds it: SrcCIDR, DstCIDR, Proto, DstPort.
	// A Testbed's aggregates change only with its deployment, so these go
	// through newChainGen directly and compare frames.
	agg := nfspec.Aggregate{SrcCIDR: "10.1.0.0/16", DstCIDR: "172.16.0.0/12"}
	for _, tc := range []struct {
		name string
		edit func(*nfspec.Aggregate)
	}{
		{"SrcCIDR", func(a *nfspec.Aggregate) { a.SrcCIDR = "10.2.0.0/16" }},
		{"DstCIDR", func(a *nfspec.Aggregate) { a.DstCIDR = "172.16.0.0/13" }},
		{"Proto", func(a *nfspec.Aggregate) { a.Proto = packet.IPProtoTCP }},
		{"DstPort", func(a *nfspec.Aggregate) { a.DstPort = 53 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			edited := agg
			tc.edit(&edited)
			warm := &Testbed{}
			if _, err := warm.newChainGen(agg, 0, &base); err != nil {
				t.Fatal(err)
			}
			got, err := warm.newChainGen(edited, 0, &base)
			if err != nil {
				t.Fatal(err)
			}
			want, err := (&Testbed{}).newChainGen(edited, 0, &base)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 500; i++ {
				if g, w := got.NextInto(nil, 0), want.NextInto(nil, 0); !bytes.Equal(g, w) {
					t.Fatalf("frame %d: warm Testbed served a stale schedule", i)
				}
			}
		})
	}

	t.Run("unchanged", func(t *testing.T) {
		for _, cfg := range []SimConfig{base, churn} {
			tb, offered := deployStateless(t)
			first, err := tb.Simulate(offered, cfg)
			if err != nil {
				t.Fatal(err)
			}
			again, err := tb.Simulate(offered, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(marshalSim(t, again), marshalSim(t, first)) {
				t.Fatalf("the same config on a warm Testbed\nrun 1: %s\nrun 2: %s", marshalSim(t, first), marshalSim(t, again))
			}
			// Regenerating reuses the arena too, so its address proves
			// nothing alone: a mark in it shows whether it was rewritten.
			sched := tb.scheds[1].sched
			arena, mark := &sched.Tuples[0], sched.Tuples[0]
			mark.SrcPort ^= 1
			sched.Tuples[0] = mark
			if _, err := tb.Simulate(offered, cfg); err != nil {
				t.Fatal(err)
			}
			if tb.scheds[1].sched != sched || &sched.Tuples[0] != arena {
				t.Fatal("an unchanged config moved the arena")
			}
			if sched.Tuples[0] != mark {
				t.Fatal("an unchanged config rebuilt the schedule")
			}
		}
	})
}
