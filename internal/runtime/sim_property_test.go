package runtime

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/metacompiler"
	"lemur/internal/nfgraph"
	"lemur/internal/nfspec"
	"lemur/internal/obs"
	"lemur/internal/placer"
	"lemur/internal/profile"
)

// randomChainSpec builds a random linear chain of 2-6 NFs drawn from a pool
// that always terminates in IPv4Fwd (the placer invariant suite's idiom).
func randomChainSpec(rng *rand.Rand, idx int) string {
	pool := []string{"ACL", "Encrypt", "Decrypt", "Monitor", "Tunnel", "Detunnel",
		"LB", "Match", "UrlFilter", "Limiter", "NAT", "Dedup"}
	n := 2 + rng.Intn(4)
	spec := fmt.Sprintf("chain rc%d {\n  slo { tmin = %dMbps  tmax = 100Gbps }\n  aggregate { src = 10.%d.0.0/16 }\n",
		idx, 100+rng.Intn(2000), idx)
	names := make([]string, 0, n+1)
	for i := 0; i < n; i++ {
		class := pool[rng.Intn(len(pool))]
		name := fmt.Sprintf("n%d", i)
		spec += fmt.Sprintf("  %s = %s()\n", name, class)
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
	in := &placer.Input{Topo: hw.NewPaperTestbed(), DB: profile.DefaultDB(), Restrict: evalRestrict}
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

// runSim executes one engine over a freshly compiled deployment under a
// clean metrics registry and returns the marshalled SimResult plus the
// metrics snapshot bytes.
func runSim(t *testing.T, d *metacompiler.Deployment, offered []float64, cfg SimConfig,
	engine func(*Testbed, []float64, SimConfig) (*SimResult, error)) ([]byte, []byte) {
	t.Helper()
	reg := obs.Default()
	reg.Reset()
	sim, err := engine(New(d, 42), offered, cfg)
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

// TestSimulateMatchesReference holds the batched arena engine byte-identical
// to the retained reference implementation — SimResult AND the exported
// metrics snapshot — across 50+ random topologies × seeds, spanning
// underload and overload (queue growth, drop onset, re-parked packets).
func TestSimulateMatchesReference(t *testing.T) {
	reg := obs.Default()
	reg.Enable()
	t.Cleanup(func() {
		reg.Disable()
		reg.Reset()
	})

	rng := rand.New(rand.NewSource(404))
	factors := []float64{0.7, 1.0, 1.3, 1.8}
	cases, skipped := 0, 0
	for trial := 0; cases < 52 && trial < 120; trial++ {
		nChains := 1 + rng.Intn(3)
		src := ""
		for c := 0; c < nChains; c++ {
			src += randomChainSpec(rng, c)
		}
		// Two identical deployments: engines must not share NF state.
		dRef := compileRandom(t, src)
		if dRef == nil {
			skipped++
			continue
		}
		dFast := compileRandom(t, src)
		cases++

		offered := make([]float64, len(dRef.Result.ChainRates))
		for i, r := range dRef.Result.ChainRates {
			offered[i] = r * factors[(trial+i)%len(factors)]
		}
		cfg := SimConfig{Seed: int64(1000 + trial), DurationSec: 0.08}

		refStats, refMetrics := runSim(t, dRef, offered, cfg, (*Testbed).simulateReference)
		fastStats, fastMetrics := runSim(t, dFast, offered, cfg, (*Testbed).Simulate)

		if !bytes.Equal(refStats, fastStats) {
			t.Fatalf("trial %d: SimResult diverged\nref:  %s\nfast: %s\nspec:\n%s",
				trial, refStats, fastStats, src)
		}
		if !bytes.Equal(refMetrics, fastMetrics) {
			t.Fatalf("trial %d: metrics snapshots diverged (ref %d bytes, fast %d bytes)\nspec:\n%s",
				trial, len(refMetrics), len(fastMetrics), src)
		}
	}
	if cases < 50 {
		t.Fatalf("only %d feasible random cases (%d skipped); loosen the generator", cases, skipped)
	}
}

// TestSimulateDelayMonotonic drives the multi-chain deployment deep into
// overload with the per-packet invariant check armed: a packet's accumulated
// queue wait must never exceed its lifetime. The pre-fix accounting
// (re-adding now-bornSec on every park) violates this on the first packet
// that parks twice.
func TestSimulateDelayMonotonic(t *testing.T) {
	_, res, tb := deploy(t, hw.NewPaperTestbed(), multiSpec, placer.SchemeLemur)
	offered := []float64{res.ChainRates[0] * 2.5, res.ChainRates[1] * 2.5}
	cfg := SimConfig{Seed: 9, DurationSec: 0.25, debugCheckDelays: true}
	sim, err := tb.Simulate(offered, cfg)
	if err != nil {
		t.Fatalf("delay invariant violated: %v", err)
	}
	overloaded := false
	for ci := range sim.DropRate {
		if sim.DropRate[ci] > 0 {
			overloaded = true
		}
	}
	if !overloaded {
		t.Fatal("test did not reach overload; raise the offered rates")
	}
}

// quantileRef is the sort-based reference quantileSelect is checked against.
func quantileRef(a []float64, k int) float64 {
	b := append([]float64(nil), a...)
	sort.Float64s(b)
	return b[k]
}

// TestQuantileSelect checks quickselect returns exactly sort.Float64s+index
// for random inputs, including duplicate-heavy ones.
func TestQuantileSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(500)
		a := make([]float64, n)
		for i := range a {
			if trial%3 == 0 {
				a[i] = float64(rng.Intn(8)) // heavy duplicates
			} else {
				a[i] = rng.NormFloat64()
			}
		}
		k := rng.Intn(n)
		want := quantileRef(a, k)
		if got := quantileSelect(a, k); got != want {
			t.Fatalf("trial %d: quantileSelect(n=%d, k=%d) = %v, want %v", trial, n, k, got, want)
		}
	}
}

// TestQuantileSelectTiny exhausts every k for every n below 100 on random,
// duplicate-heavy, and constant inputs — the sizes the p99 index formula
// (len*99)/100 collapses onto k=0 and off-by-ones would hide in.
func TestQuantileSelectTiny(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for n := 1; n < 100; n++ {
		fill := [][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
		for i := 0; i < n; i++ {
			fill[0][i] = rng.NormFloat64()
			fill[1][i] = float64(rng.Intn(3))
			fill[2][i] = 42
		}
		for _, a := range fill {
			for k := 0; k < n; k++ {
				in := append([]float64(nil), a...)
				want := quantileRef(a, k)
				if got := quantileSelect(in, k); got != want {
					t.Fatalf("n=%d k=%d: got %v, want %v (input %v)", n, k, got, want, a)
				}
			}
		}
	}
}

// TestQuantileSelectAdversarial drives quickselect through deterministic
// pivot-hostile shapes — sorted, reversed, organ-pipe, sawtooth, two-valued,
// and near-constant-with-outlier inputs — at the extremes k=0, k=n-1, the
// median, and the p99 index the simulator actually uses.
func TestQuantileSelectAdversarial(t *testing.T) {
	const n = 257
	shapes := map[string]func(i int) float64{
		"sorted":     func(i int) float64 { return float64(i) },
		"reversed":   func(i int) float64 { return float64(n - i) },
		"organpipe":  func(i int) float64 { return float64(min(i, n-1-i)) },
		"sawtooth":   func(i int) float64 { return float64(i % 7) },
		"twovalue":   func(i int) float64 { return float64(i & 1) },
		"onehigh":    func(i int) float64 { return map[bool]float64{true: 1e12, false: 5}[i == n/2] },
		"negstride":  func(i int) float64 { return float64(-i * 3) },
		"zeros":      func(i int) float64 { return 0 },
		"tinyfloats": func(i int) float64 { return float64(i%5) * 1e-300 },
	}
	ks := []int{0, 1, n / 2, n - 2, n - 1, (n * 99) / 100}
	for name, gen := range shapes {
		a := make([]float64, n)
		for i := range a {
			a[i] = gen(i)
		}
		for _, k := range ks {
			in := append([]float64(nil), a...)
			want := quantileRef(a, k)
			if got := quantileSelect(in, k); got != want {
				t.Fatalf("%s k=%d: got %v, want %v", name, k, got, want)
			}
		}
	}
}
