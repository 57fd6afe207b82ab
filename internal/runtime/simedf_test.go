package runtime

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/obs"
	"lemur/internal/placer"
)

// deadlineSpec is simpleSpec plus a chain deadline, enough to put a
// Deadline root in the scheduler trees and compliance in the results.
const deadlineSpec = `
chain webdl {
  slo { tmin = 2Gbps  tmax = 100Gbps  dmax = 0.02 }
  aggregate { src = 10.0.0.0/8  dst = 172.16.0.0/12 }
  acl0 = ACL(allow_dst = "172.16.0.0/12", rules = 1024)
  enc0 = Encrypt()
  fwd0 = IPv4Fwd()
  acl0 -> enc0 -> fwd0
}`

// TestDeadlineFreePolicyByteIdentity is the deadline-free contract: when no
// chain carries a DMaxSec/DMaxP99Sec, the scheduler trees stay round-robin
// (no deadline_edf node in any emitted BESS script), DeadlineSlacks is
// empty, and SimResult plus the exported metrics snapshot are byte-identical
// across every scheduler policy and worker count — over 50+ random chain
// sets. Combined with TestSimulateDeterministicRegression (which pins the
// default-policy output to pre-EDF goldens), this holds the whole PR
// invisible to deadline-free deployments.
func TestDeadlineFreePolicyByteIdentity(t *testing.T) {
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})

	type variant struct {
		policy  string
		workers int
	}
	variants := []variant{
		{SchedEDF, 1}, {SchedRR, 1},
		{"", 2}, {SchedEDF, 8}, {SchedRR, 2},
	}

	rng := rand.New(rand.NewSource(505))
	factors := []float64{0.7, 1.0, 1.4}
	cases, skipped := 0, 0
	for trial := 0; cases < 52 && trial < 150; trial++ {
		nChains := 1 + rng.Intn(3)
		src := ""
		for c := 0; c < nChains; c++ {
			src += randomChainSpec(rng, c)
		}
		dBase := compileRandom(t, src)
		if dBase == nil {
			skipped++
			continue
		}
		cases++

		if slacks := dBase.DeadlineSlacks(); len(slacks) != 0 {
			t.Fatalf("trial %d: deadline-free deployment reports %d slacks", trial, len(slacks))
		}
		for srv, script := range dBase.Artifacts().BESSScripts {
			if strings.Contains(script, "deadline_edf") {
				t.Fatalf("trial %d: deadline-free scheduler tree for %s contains an EDF node:\n%s",
					trial, srv, script)
			}
		}

		offered := make([]float64, len(dBase.Result.ChainRates))
		for i, r := range dBase.Result.ChainRates {
			offered[i] = r * factors[(trial+i)%len(factors)]
		}
		cfg := SimConfig{Seed: int64(2000 + trial), DurationSec: 0.06, Workers: 1}
		baseStats, baseMetrics := runSim(t, dBase, offered, cfg, (*Testbed).Simulate)
		if bytes.Contains(baseStats, []byte("DeadlineCompliance")) {
			t.Fatalf("trial %d: deadline-free SimResult leaks DeadlineCompliance:\n%s", trial, baseStats)
		}

		for _, v := range variants {
			dv := compileRandom(t, src)
			vcfg := cfg
			vcfg.SchedPolicy = v.policy
			vcfg.Workers = v.workers
			stats, metrics := runSim(t, dv, offered, vcfg, (*Testbed).Simulate)
			if !bytes.Equal(baseStats, stats) {
				t.Fatalf("trial %d: policy=%q workers=%d diverged from deadline-free baseline\nbase: %s\ngot:  %s\nspec:\n%s",
					trial, v.policy, v.workers, baseStats, stats, src)
			}
			if !bytes.Equal(baseMetrics, metrics) {
				t.Fatalf("trial %d: policy=%q workers=%d metrics diverged (base %d bytes, got %d)\nspec:\n%s",
					trial, v.policy, v.workers, len(baseMetrics), len(metrics), src)
			}
		}
	}
	if cases < 50 {
		t.Fatalf("only %d feasible random cases (%d skipped); loosen the generator", cases, skipped)
	}
}

// TestSchedPolicyValidation pins the SchedPolicy contract: "", "edf" and
// "rr" are accepted, anything else is an error before the run starts.
func TestSchedPolicyValidation(t *testing.T) {
	_, res, tb := deploy(t, hw.NewPaperTestbed(), simpleSpec, placer.SchemeLemur)
	offered := []float64{res.ChainRates[0]}
	for _, pol := range []string{"", SchedEDF, SchedRR} {
		if _, err := tb.Simulate(offered, SimConfig{Seed: 1, DurationSec: 0.01, SchedPolicy: pol}); err != nil {
			t.Fatalf("policy %q rejected: %v", pol, err)
		}
	}
	if _, err := tb.Simulate(offered, SimConfig{Seed: 1, DurationSec: 0.01, SchedPolicy: "fifo"}); err == nil {
		t.Fatal("unknown scheduler policy accepted")
	}
}

// TestSimulateDeadlineMatchesReference holds the batched engine
// byte-identical to the reference implementation when deadlines are in
// play, for both drain policies, and checks the deadline machinery is
// actually live: a Deadline root in the emitted schedulers, slacks
// reported, and per-chain compliance present in the result.
func TestSimulateDeadlineMatchesReference(t *testing.T) {
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})

	for _, pol := range []string{"", SchedEDF, SchedRR} {
		for _, lf := range []float64{0.9, 1.6} {
			_, resRef, tbRef := deploy(t, hw.NewPaperTestbed(), deadlineSpec, placer.SchemeLemur)
			_, _, tbFast := deploy(t, hw.NewPaperTestbed(), deadlineSpec, placer.SchemeLemur)

			if slacks := tbRef.D.DeadlineSlacks(); len(slacks) == 0 {
				t.Fatal("deadline chain produced no slacks")
			}
			edfTrees := false
			for _, script := range tbRef.D.Artifacts().BESSScripts {
				if strings.Contains(script, "deadline_edf") {
					edfTrees = true
				}
			}
			if !edfTrees {
				t.Fatal("deadline chain emitted no EDF scheduler root")
			}

			offered := []float64{resRef.ChainRates[0] * lf}
			cfg := SimConfig{Seed: 11, DurationSec: 0.12, SchedPolicy: pol}

			obs.Reset()
			ref, err := tbRef.simulateReference(offered, cfg)
			if err != nil {
				t.Fatal(err)
			}
			refMetrics := metricsJSON(t)
			obs.Reset()
			fast, err := tbFast.Simulate(offered, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fastMetrics := metricsJSON(t)

			refJSON, fastJSON := fmt.Sprintf("%+v", ref), fmt.Sprintf("%+v", fast)
			if refJSON != fastJSON {
				t.Fatalf("policy %q load %.1f: engines diverged\nref:  %s\nfast: %s", pol, lf, refJSON, fastJSON)
			}
			if !bytes.Equal(refMetrics, fastMetrics) {
				t.Fatalf("policy %q load %.1f: metrics snapshots diverged", pol, lf)
			}
			if len(fast.DeadlineCompliance) != 1 {
				t.Fatalf("policy %q: DeadlineCompliance = %v, want one chain", pol, fast.DeadlineCompliance)
			}
			if c := fast.DeadlineCompliance[0]; c < 0 || c > 1 {
				t.Fatalf("policy %q: compliance %v out of range", pol, c)
			}
		}
	}
}
