package runtime

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"lemur/internal/chaos"
	"lemur/internal/hw"
	"lemur/internal/metacompiler"
	"lemur/internal/nfgraph"
	"lemur/internal/nfspec"
	"lemur/internal/obs"
	"lemur/internal/pisa"
	"lemur/internal/placer"
	"lemur/internal/profile"
)

// marshalSim marshals a SimResult for byte-level comparison.
func marshalSim(t *testing.T, sim *SimResult) []byte {
	t.Helper()
	b, err := json.Marshal(sim)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// compileRandomOn is compileRandom with a caller-chosen topology — the
// parallel tests spread random chain sets over extra servers so placements
// split into several connected components worth sharding.
func compileRandomOn(t *testing.T, topo *hw.Topology, src string) *metacompiler.Deployment {
	t.Helper()
	chains, err := nfspec.Parse(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	in := &placer.Input{Topo: topo, DB: profile.DefaultDB(), Restrict: evalRestrict}
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

// partitionWorkers reports how many shards a deployment actually splits
// into at the requested worker count.
func partitionWorkers(t *testing.T, d *metacompiler.Deployment, workers int) int {
	t.Helper()
	tb := New(d, 42)
	ix, err := tb.simIndexLazy()
	if err != nil {
		t.Fatal(err)
	}
	return buildSimPartition(d, ix, len(d.Input.Chains), workers).workers
}

// TestSimulateParallelMatchesReference is the tentpole oracle: the parallel
// engine at several worker counts is byte-identical — SimResult AND metrics
// snapshot — to the retained per-packet reference engine across 50+ random
// topologies × seeds on a widened testbed, spanning underload and overload.
// It also demands that a healthy share of the drawn cases really partition
// into multiple shards, so the sweep cannot silently degrade into testing
// the serial fallback.
func TestSimulateParallelMatchesReference(t *testing.T) {
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})

	topoOpts := []hw.TestbedOption{hw.WithServers(4)}
	rng := rand.New(rand.NewSource(909))
	factors := []float64{0.7, 1.0, 1.3, 1.8}
	workerCounts := []int{2, 3, 8}
	cases, skipped, multiShard, blind := 0, 0, 0, 0
	for trial := 0; cases < 52 && trial < 130; trial++ {
		nChains := 1 + rng.Intn(3)
		src := ""
		for c := 0; c < nChains; c++ {
			src += randomChainSpec(rng, c)
		}
		// Two identical deployments: engines must not share NF state.
		dRef := compileRandomOn(t, hw.NewPaperTestbed(topoOpts...), src)
		if dRef == nil {
			skipped++
			continue
		}
		dPar := compileRandomOn(t, hw.NewPaperTestbed(topoOpts...), src)
		cases++
		blind += blindChains(dPar)
		workers := workerCounts[trial%len(workerCounts)]
		if partitionWorkers(t, dPar, workers) > 1 {
			multiShard++
		}

		offered := make([]float64, len(dRef.Result.ChainRates))
		for i, r := range dRef.Result.ChainRates {
			offered[i] = r * factors[(trial+i)%len(factors)]
		}
		cfg := SimConfig{Seed: int64(4000 + trial), DurationSec: 0.08}
		refStats, refMetrics := runSim(t, dRef, offered, cfg, (*Testbed).simulateReference)
		pcfg := cfg
		pcfg.Workers = workers
		parStats, parMetrics := runSim(t, dPar, offered, pcfg, (*Testbed).Simulate)

		if !bytes.Equal(refStats, parStats) {
			t.Fatalf("trial %d (workers=%d): SimResult diverged\nref: %s\npar: %s\nspec:\n%s",
				trial, workers, refStats, parStats, src)
		}
		if !bytes.Equal(refMetrics, parMetrics) {
			t.Fatalf("trial %d (workers=%d): metrics snapshots diverged (ref %d bytes, par %d bytes)\nspec:\n%s",
				trial, workers, len(refMetrics), len(parMetrics), src)
		}
	}
	if cases < 50 {
		t.Fatalf("only %d feasible random cases (%d skipped); loosen the generator", cases, skipped)
	}
	if blind == 0 {
		t.Fatal("no payload-blind chain ran: the headers-only frame source went unchecked")
	}
	if multiShard < cases/3 {
		t.Fatalf("only %d/%d cases produced a multi-shard partition; widen the testbed", multiShard, cases)
	}
	t.Logf("%d cases, %d multi-shard, %d skipped", cases, multiShard, skipped)
}

// TestSimulateParallelFailoverByteIdentity holds the barriered epoch driver
// byte-identical to the serial engine under fault schedules — a mid-run
// crash (with its Replace→Rewire and shard re-partition) plus degrade and
// overload events — at several worker counts.
func TestSimulateParallelFailoverByteIdentity(t *testing.T) {
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})

	run := func(workers int, planText string) ([]byte, []byte) {
		t.Helper()
		// The shared compile cache is process-global; reset it so every
		// run's rewire recompiles see the same hit/miss trajectory.
		pisa.SharedCache().Reset()
		in, res, tb := deploy(t, hw.NewPaperTestbed(hw.WithServers(3)), failoverSpec, placer.SchemeLemur)
		target := res.Subgroups[0].Server
		if placer.NewNodeSet(target).Expand(in.Topo) == nil {
			t.Fatalf("bad victim %s", target)
		}
		plan, err := chaos.Parse(fmt.Sprintf(planText, target))
		if err != nil {
			t.Fatal(err)
		}
		obs.Reset()
		cfg := SimConfig{Seed: 21, DurationSec: 0.3, Faults: plan, Workers: workers}
		sim, err := tb.Simulate([]float64{6e9, 6e9}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats := marshalSim(t, sim)
		return stats, scrubWallClock(t, metricsJSON(t))
	}

	for _, planText := range []string{
		"crash:%[1]s@0.05s",
		"degrade:%[1]s@0.04sx0.5;overload:%[1]s@0.1sx2",
	} {
		serialStats, serialMetrics := run(1, planText)
		for _, w := range []int{2, 8} {
			parStats, parMetrics := run(w, planText)
			if !bytes.Equal(serialStats, parStats) {
				t.Fatalf("plan %q workers=%d: SimResult diverged\nserial: %s\npar:    %s",
					planText, w, serialStats, parStats)
			}
			if !bytes.Equal(serialMetrics, parMetrics) {
				t.Fatalf("plan %q workers=%d: metrics diverged", planText, w)
			}
		}
	}
}

// TestSimulateParallelChurnByteIdentity holds the barriered epoch driver
// byte-identical to the serial engine under a churn schedule that admits a
// chain mid-run (growing the chain set and re-partitioning the shards) and
// then retires another.
func TestSimulateParallelChurnByteIdentity(t *testing.T) {
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})

	run := func(workers int) ([]byte, []byte) {
		t.Helper()
		pisa.SharedCache().Reset()
		_, _, tb := deployHeadroom(t, hw.NewPaperTestbed(hw.WithServers(3)), failoverSpec, 4)
		plan, err := chaos.Parse("admit:gamma@0.05s;retire:beta@0.12s")
		if err != nil {
			t.Fatal(err)
		}
		obs.Reset()
		sim, err := tb.Simulate([]float64{4e9, 4e9}, SimConfig{
			Seed: 13, DurationSec: 0.25, Faults: plan, Workers: workers,
			ChurnCatalog: map[string]*nfgraph.Graph{"gamma": graphFor(t, gammaSpec)},
		})
		if err != nil {
			t.Fatal(err)
		}
		stats := marshalSim(t, sim)
		buf := metricsJSON(t)
		if !bytes.Contains(stats, []byte("RewireSummaries")) {
			t.Fatalf("churn run did not rewire: %s", stats)
		}
		return stats, scrubWallClock(t, buf)
	}

	serialStats, serialMetrics := run(1)
	for _, w := range []int{2, 4} {
		parStats, parMetrics := run(w)
		if !bytes.Equal(serialStats, parStats) {
			t.Fatalf("workers=%d: churn SimResult diverged\nserial: %s\npar:    %s", w, serialStats, parStats)
		}
		if !bytes.Equal(serialMetrics, parMetrics) {
			t.Fatalf("workers=%d: churn metrics diverged", w)
		}
	}
}

// TestSimulateWorkersValidation pins the config validation: negative worker
// counts and flow scales are loud errors, and Workers 0/1 are the same
// serial run.
func TestSimulateWorkersValidation(t *testing.T) {
	_, res, tb := deploy(t, hw.NewPaperTestbed(), multiSpec, placer.SchemeLemur)
	offered := []float64{res.ChainRates[0], res.ChainRates[1]}
	if _, err := tb.Simulate(offered, SimConfig{Seed: 1, DurationSec: 0.02, Workers: -1}); err == nil {
		t.Fatal("negative Workers must error")
	}
	if _, err := tb.Simulate(offered, SimConfig{Seed: 1, DurationSec: 0.02, FlowScale: -5}); err == nil {
		t.Fatal("negative FlowScale must error")
	}
	a, err := tb.Simulate(offered, SimConfig{Seed: 1, DurationSec: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	b, err := tb.Simulate(offered, SimConfig{Seed: 1, DurationSec: 0.05, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalSim(t, a), marshalSim(t, b)) {
		t.Fatal("Workers 0 and 1 must be the identical serial run")
	}
}

// TestBuildSimPartitionInvariants checks the partition is a true partition
// — every primary entry and chain slot owned exactly once, ascending per
// shard — and deterministic across rebuilds.
func TestBuildSimPartitionInvariants(t *testing.T) {
	_, _, tb := deploy(t, hw.NewPaperTestbed(hw.WithServers(3)), failoverSpec, placer.SchemeLemur)
	ix, err := tb.simIndexLazy()
	if err != nil {
		t.Fatal(err)
	}
	nChains := len(tb.D.Input.Chains)
	for _, req := range []int{1, 2, 3, 8} {
		part := buildSimPartition(tb.D, ix, nChains, req)
		if part.workers < 1 || part.workers > req {
			t.Fatalf("req=%d: workers=%d", req, part.workers)
		}
		seenP := map[int32]bool{}
		for w, prims := range part.prims {
			last := int32(-1)
			for _, pi := range prims {
				if pi <= last {
					t.Fatalf("req=%d shard %d: prims not ascending", req, w)
				}
				last = pi
				if seenP[pi] || part.ownerOfEntry[pi] != int32(w) {
					t.Fatalf("req=%d: primary %d multiply or inconsistently owned", req, pi)
				}
				seenP[pi] = true
			}
		}
		if len(seenP) != ix.nPrimary {
			t.Fatalf("req=%d: %d of %d primaries owned", req, len(seenP), ix.nPrimary)
		}
		seenC := map[int32]bool{}
		for _, chains := range part.chains {
			for _, ci := range chains {
				if seenC[ci] {
					t.Fatalf("req=%d: chain %d multiply owned", req, ci)
				}
				seenC[ci] = true
			}
		}
		if len(seenC) != nChains {
			t.Fatalf("req=%d: %d of %d chains owned", req, len(seenC), nChains)
		}
		again := buildSimPartition(tb.D, ix, nChains, req)
		for i := range part.ownerOfEntry {
			if part.ownerOfEntry[i] != again.ownerOfEntry[i] {
				t.Fatalf("req=%d: partition not deterministic at entry %d", req, i)
			}
		}
	}
}

// twoComponentSpec places two disjoint stateful chains, so a widened
// testbed splits them into two shardable components.
const twoComponentSpec = `
chain pa {
  slo { tmin = 2Gbps  tmax = 100Gbps }
  aggregate { src = 10.1.0.0/16 }
  mon0 = Monitor()
  nat0 = NAT()
  fwd0 = IPv4Fwd()
  mon0 -> nat0 -> fwd0
}
chain pb {
  slo { tmin = 2Gbps  tmax = 100Gbps }
  aggregate { src = 10.2.0.0/16 }
  lb0 = LB()
  ddp0 = Dedup()
  fwd0 = IPv4Fwd()
  lb0 -> ddp0 -> fwd0
}`

// TestSimulateParallelAllocBudget is the parallel path's allocation guard:
// the sharded engine at workers=4 over a flow-scaled two-component chain
// set must stay under 0.25 allocations per simulated packet — the per-shard
// pools and the partition build are amortized. A fault plan has a budget of
// its own (see faultPlanAllocBudget). What one more packet costs is
// TestSimulateAllocBudget's subject.
func TestSimulateParallelAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel alloc smoke is not -short")
	}
	_, res, tb := deploy(t, hw.NewPaperTestbed(hw.WithServers(2)), twoComponentSpec, placer.SchemeLemur)
	if w := partitionWorkers(t, tb.D, 4); w < 2 {
		t.Fatalf("expected a multi-shard partition, got %d", w)
	}
	offered := []float64{res.ChainRates[0] * 1.2, res.ChainRates[1] * 1.2}
	cfg := SimConfig{Seed: 5, DurationSec: 2.0, FlowScale: 100_000, Workers: 4}

	var injected int
	allocs := testing.AllocsPerRun(3, func() {
		sim, err := tb.Simulate(offered, cfg)
		if err != nil {
			t.Fatal(err)
		}
		injected = sim.Injected[0] + sim.Injected[1]
	})
	if injected == 0 {
		t.Fatal("no packets injected")
	}
	perPkt := allocs / float64(injected)
	t.Logf("allocs/run %.0f, injected %d, allocs/pkt %.3f", allocs, injected, perPkt)
	const budget = 0.25 // 1.5x the 0.162 measured: set-up and partition over 4 844 packets
	if perPkt > budget {
		t.Fatalf("allocation regression: %.3f allocs/packet exceeds the %.2f budget", perPkt, budget)
	}
	faultPlanAllocBudget(t)
}
