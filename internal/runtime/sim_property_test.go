package runtime

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"lemur/internal/bess"
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

// blindChains counts d's chains the fast engine emits headers only
// (readsPayload false). An engine identity test over such a chain holds
// the fast engine's unwritten payloads to the reference's written ones.
func blindChains(d *metacompiler.Deployment) int {
	n := 0
	for _, g := range d.Input.Chains {
		if !readsPayload(g) {
			n++
		}
	}
	return n
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
	cases, skipped, blind := 0, 0, 0
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
		blind += blindChains(dFast)

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
	if blind == 0 {
		t.Fatal("no payload-blind chain ran: the headers-only frame source went unchecked")
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

// TestDelayTailMatchesSort holds a chain's delayTail to the raw samples it
// replaced: its p99 to sort.Float64s(waits)[(n*99)/100] (quantileRef), and
// its deadline compliance and counters to finalizeDeadlines over the waits.
// The counts sit on both sides of a p99 index step and reach the bound
// itself; the waits are continuous, all equal to the deadline, tied on a
// grid that holds the deadline, and signed zeros.
func TestDelayTailMatchesSort(t *testing.T) {
	reg := obs.Default()
	reg.Enable()
	t.Cleanup(func() {
		reg.Disable()
		reg.Reset()
	})
	snapshot := func() []byte {
		var b bytes.Buffer
		if err := reg.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}

	const bound = 2345
	chains := []*nfgraph.Graph{graphFor(t, deadlineSpec), graphFor(t, simpleSpec)}
	deadline := metacompiler.EffectiveDeadlineSec(chains[0])
	if deadline <= 0 || metacompiler.EffectiveDeadlineSec(chains[1]) != 0 {
		t.Fatal("want one chain with a deadline and one without")
	}
	negZero := math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(31))
	shapes := []struct {
		name string
		wait func(i int) float64
	}{
		{"continuous", func(int) float64 { return rng.ExpFloat64() * deadline }},
		{"all-equal", func(int) float64 { return deadline }},
		{"ties", func(int) float64 { return float64(rng.Intn(4)) * deadline / 2 }},
		{"negative-zero", func(int) float64 { return negZero }},
		{"signed-zeros", func(i int) float64 { return [2]float64{0, negZero}[i%2] }},
	}
	for _, n := range []int{1, 99, 100, 101, 1000, bound} {
		for _, sh := range shapes {
			waits := make([]float64, n)
			tails := []delayTail{newDelayTail(bound, deadline), newDelayTail(bound, 0)}
			for i := range waits {
				waits[i] = sh.wait(i)
				tails[0].add(waits[i])
				tails[1].add(waits[i])
			}
			want := quantileRef(waits, (n*99)/100)
			got, err := tails[0].p99()
			if err != nil {
				t.Fatalf("%s n=%d: %v", sh.name, n, err)
			}
			// Only a mix of both zeros leaves the sort free to pick either.
			if got != want || sh.name != "signed-zeros" && math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s n=%d: p99 %v, want %v", sh.name, n, got, want)
			}

			reg.Reset()
			wantComp := finalizeDeadlines(chains, [][]float64{waits, waits})
			wantSnap := snapshot()
			reg.Reset()
			gotComp := deadlineCompliance(tails)
			if fmt.Sprint(gotComp) != fmt.Sprint(wantComp) || !bytes.Equal(snapshot(), wantSnap) {
				t.Fatalf("%s n=%d: compliance %v, want %v (or the counters differ)", sh.name, n, gotComp, wantComp)
			}
		}
	}

	t.Run("past the bound", func(t *testing.T) {
		tail := newDelayTail(10, 0)
		for i := 0; i < 11; i++ {
			tail.add(float64(i))
		}
		if _, err := tail.p99(); err == nil {
			t.Fatal("11 waits under a bound of 10 gave a p99")
		}
		_, res, tb := deploy(t, hw.NewPaperTestbed(), simpleSpec, placer.SchemeLemur)
		eng, err := tb.newSimEngine([]float64{res.ChainRates[0]}, SimConfig{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		bound := eng.tails[0].bound
		eng.tails[0] = newDelayTail(100, 0)
		if err := eng.run(); err != nil {
			t.Fatal(err)
		}
		if n := eng.res.Injected[0]; n > bound || eng.res.Egressed[0] <= 100 {
			t.Fatalf("%d packets injected under a bound of %d, %d egressed", n, bound, eng.res.Egressed[0])
		}
		if _, err := eng.finish(); err == nil || !strings.Contains(err.Error(), "bound of 100") {
			t.Fatalf("a planted bound of 100 under %d egressed packets: got %v, want an error", eng.res.Egressed[0], err)
		}
	})
}

// TestSimIndexLookupMatchesDemux holds the dispatch index to the demux it
// stands in for: for every pipeline, every SPI up to two past the largest
// bound one and every SI, lookup resolves what pl.SubgroupFor and idxOf
// resolve, and every binding resolves from the table, not the fallback. It
// runs over random topologies, over the index a failover rewire rebuilt
// mid-run, and over a deployment with a key bound by two pipelines and
// unbound SIs inside a bound SPI's span.
func TestSimIndexLookupMatchesDemux(t *testing.T) {
	check := func(t *testing.T, d *metacompiler.Deployment, ix *simIndex) (shared, gaps int) {
		t.Helper()
		maxSPI := 0
		for _, pl := range d.Pipelines {
			for _, b := range pl.PathBindings() {
				maxSPI = max(maxSPI, int(b.SPI))
				sp := ix.spans[b.SPI]
				d := int(b.SI) - int(sp.lo)
				if d < 0 || d >= int(sp.n) {
					t.Fatalf("spi=%d si=%d lies outside its span [%d, %d)", b.SPI, b.SI, sp.lo, int(sp.lo)+int(sp.n))
				}
				if s := ix.slots[int(sp.off)+d]; s.idx != -2 && (s.pl != pl || s.idx != ix.idxOf[b.Sub]) {
					t.Fatalf("spi=%d si=%d: slot %+v, want entry %d on its pipeline", b.SPI, b.SI, s, ix.idxOf[b.Sub])
				}
			}
		}
		for name, pl := range d.Pipelines {
			for spi := uint32(0); spi <= uint32(maxSPI)+2; spi++ {
				for si := 0; si < 256; si++ {
					want := int32(-1)
					if sub := pl.SubgroupFor(spi, uint8(si)); sub != nil {
						if idx, ok := ix.idxOf[sub]; ok {
							want = idx
						}
					}
					if got := ix.lookup(pl, spi, uint8(si)); got != want {
						t.Fatalf("%s spi=%d si=%d: lookup %d, demux %d", name, spi, si, got, want)
					}
				}
			}
		}
		for _, s := range ix.slots {
			switch s.idx {
			case -1:
				gaps++
			case -2:
				shared++
			}
		}
		return shared, gaps
	}

	t.Run("random topologies", func(t *testing.T) {
		rng := rand.New(rand.NewSource(808))
		cases := 0
		for trial := 0; cases < 20 && trial < 60; trial++ {
			src := ""
			for c, n := 0, 1+rng.Intn(3); c < n; c++ {
				src += randomChainSpec(rng, c)
			}
			if d := compileRandom(t, src); d != nil {
				ix, err := buildSimIndex(d)
				if err != nil {
					t.Fatal(err)
				}
				check(t, d, ix)
				cases++
			}
		}
		if cases < 20 {
			t.Fatalf("only %d feasible random cases", cases)
		}
	})

	t.Run("after a failover rewire", func(t *testing.T) {
		tb, offered, cfg := goldenFaults(4, goldenCrashPlan, 0.5)(t)
		first, err := tb.simIndexLazy()
		if err != nil {
			t.Fatal(err)
		}
		eng, sim := runEngine(t, tb, offered, cfg)
		if sim.Failover == nil || sim.Failover.RewireSummary == "" || eng.ix == first || tb.simIdx != eng.ix {
			t.Fatal("the run did not rewire and install a fresh index")
		}
		check(t, tb.D, eng.ix)
	})

	t.Run("a key bound by two pipelines", func(t *testing.T) {
		_, _, tb := deploy(t, hw.NewPaperTestbed(hw.WithServers(3)), goldenSpec, placer.SchemeLemur)
		var names []string
		for name := range tb.D.Pipelines {
			names = append(names, name)
		}
		sort.Strings(names)
		if len(names) < 2 {
			t.Fatalf("%d pipeline(s), want two", len(names))
		}
		a, b := tb.D.Pipelines[names[0]], tb.D.Pipelines[names[1]]
		key := a.PathBindings()[0]
		for _, sg := range []*bess.Subgroup{
			{Name: "shared", SPI: key.SPI, EntrySI: key.SI},
			{Name: "far", SPI: key.SPI, EntrySI: key.SI - 9},
		} {
			if err := b.Add(sg); err != nil {
				t.Fatal(err)
			}
		}
		ix, err := buildSimIndex(tb.D)
		if err != nil {
			t.Fatal(err)
		}
		if shared, gaps := check(t, tb.D, ix); shared == 0 || gaps == 0 {
			t.Fatalf("%d shared key(s) and %d unbound SI(s) in a span, want both", shared, gaps)
		}
	})
}
