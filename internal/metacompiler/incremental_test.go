package metacompiler

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/nfgraph"
	"lemur/internal/nfspec"
	"lemur/internal/placer"
	"lemur/internal/profile"
)

// randomChainSpec is the placer tests' random chain (TestReconfigureCombinedDelta
// draws from it): a linear chain of 2-5 NFs ending in IPv4Fwd with a random
// t_min. Every third chain here also carries a deadline, so the servers'
// scheduler trees are EDF trees with slacks.
func randomChainSpec(rng *rand.Rand, idx int) string {
	pool := []string{"ACL", "Encrypt", "Decrypt", "Monitor", "Tunnel", "Detunnel",
		"LB", "Match", "UrlFilter", "Limiter", "NAT", "Dedup"}
	n := 2 + rng.Intn(4)
	dmax := ""
	if idx%3 == 2 {
		dmax = "  dmax = 5ms"
	}
	spec := fmt.Sprintf("chain rc%d {\n  slo { tmin = %dMbps  tmax = 100Gbps%s }\n  aggregate { src = 10.%d.0.0/16 }\n",
		idx, 100+rng.Intn(2000), dmax, idx)
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

// TestIncrementalArtifactsMatchFullRender: over seeded racks, each driven
// through a sequence of deltas that admit, retire and fail at random (alone
// and combined), the artifacts Apply renders for what a delta touched are
// deep-equal — P4 text and its per-chain offsets, every BESS script and
// eBPF source, every line count — to a full render of the deployment after
// the same delta.
func TestIncrementalArtifactsMatchFullRender(t *testing.T) {
	rng := rand.New(rand.NewSource(150915))
	applied, copiedScripts := 0, 0
	for trial := 0; trial < 30; trial++ {
		opts := []hw.TestbedOption{hw.WithServers(2 + rng.Intn(3))}
		if rng.Intn(2) == 0 {
			opts = append(opts, hw.WithSmartNIC())
		}
		topo := hw.NewPaperTestbed(opts...)
		src := ""
		for c := 0; c < 10; c++ {
			src += randomChainSpec(rng, c)
		}
		chains, err := nfspec.Parse(src)
		if err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		var pool []*nfgraph.Graph
		for _, c := range chains {
			g, err := nfgraph.Build(c)
			if err != nil {
				t.Fatal(err)
			}
			pool = append(pool, g)
		}
		nBase := 2 + rng.Intn(2)
		in := &placer.Input{Topo: topo, DB: profile.DefaultDB(), Restrict: evalRestrict,
			HeadroomCores: 2 + rng.Intn(3), Chains: pool[:nBase:nBase]}
		res, err := placer.Place(placer.SchemeLemur, in)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Feasible {
			continue
		}
		d, err := Compile(in, res)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var failed []string
		for step := 0; step < 8 && len(in.Chains) < len(pool); step++ {
			var dl placer.Delta
			next := in
			if rng.Intn(3) > 0 {
				grown := *in
				k := min(1+rng.Intn(2), len(pool)-len(in.Chains))
				grown.Chains = pool[: len(in.Chains)+k : len(in.Chains)+k]
				for ci := len(in.Chains); ci < len(grown.Chains); ci++ {
					dl.Admit = append(dl.Admit, ci)
				}
				next = &grown
			}
			if live := liveSlots(d.Result, len(in.Chains)); len(live) > 1 && rng.Intn(2) == 0 {
				dl.Retire = []int{live[rng.Intn(len(live))]}
			}
			if len(failed) == 0 && rng.Intn(4) == 0 {
				victim := topo.Servers[rng.Intn(len(topo.Servers))].Name
				if len(topo.SmartNICs) > 0 && rng.Intn(2) == 0 {
					victim = topo.SmartNICs[0].Name
				}
				failed = append(failed, victim)
			}
			dl.Failed = placer.NewNodeSet(failed...)
			rep, err := placer.Reconfigure(d.Result, next, dl)
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			if rep.Outcome != placer.AdmitIncremental {
				if len(dl.Admit) > 0 { // the rack is full: stop admitting
					break
				}
				continue
			}
			prev := d.Artifacts
			if _, err := d.Apply(next, rep.Result, dl); err != nil {
				t.Fatalf("trial %d step %d: apply: %v", trial, step, err)
			}
			in = next
			applied++
			full, err := d.generateArtifacts(nil, nil, nil)
			if err != nil {
				t.Fatalf("trial %d step %d: full render: %v", trial, step, err)
			}
			if !reflect.DeepEqual(d.Artifacts, full) {
				t.Fatalf("trial %d step %d (%+v): incremental artifacts differ from a full render\n%s",
					trial, step, dl, artifactsDiff(full, d.Artifacts))
			}
			for name, script := range d.Artifacts.BESSScripts {
				if old, ok := prev.BESSScripts[name]; ok && old == script {
					copiedScripts++
				}
			}
		}
	}
	if applied < 60 || copiedScripts == 0 {
		t.Fatalf("%d deltas applied, %d scripts kept; property under-exercised", applied, copiedScripts)
	}
	t.Logf("%d deltas applied, %d server scripts kept unchanged", applied, copiedScripts)
}

// liveSlots lists the chain slots of res below n that are not retired.
func liveSlots(res *placer.Result, n int) []int {
	var out []int
	for ci := 0; ci < n; ci++ {
		if !res.IsRetired(ci) {
			out = append(out, ci)
		}
	}
	return out
}

// artifactsDiff names the first artifact in which got differs from want.
func artifactsDiff(want, got *Artifacts) string {
	if want.P4Source != got.P4Source {
		w, g := strings.Split(want.P4Source, "\n"), strings.Split(got.P4Source, "\n")
		for i := range w {
			if i >= len(g) || w[i] != g[i] {
				return fmt.Sprintf("P4 line %d: want %q, got %q", i+1, w[i], g[min(i, len(g)-1)])
			}
		}
		return "P4 source longer than a full render's"
	}
	for name, s := range want.BESSScripts {
		if got.BESSScripts[name] != s {
			return fmt.Sprintf("BESS script for %s:\nwant\n%s\ngot\n%s", name, s, got.BESSScripts[name])
		}
	}
	return fmt.Sprintf("want %+v\ngot  %+v", *want, *got)
}

// costChain is a cheap two-NF chain, the shape lemurd's reconcile benchmark
// admits.
func costChain(id int) string {
	return fmt.Sprintf("chain c%d {\n  slo { tmin = 500Mbps  tmax = 100Gbps }\n  aggregate { src = 10.%d.0.0/16 }\n"+
		"  mon0 = Monitor()\n  fwd0 = IPv4Fwd()\n  mon0 -> fwd0\n}\n", id, id%250)
}

// TestApplyAdmitCostFlatInLiveChains: applying a one-chain admission costs
// what the admitted chain and the server it lands on cost, not what the rack
// runs. On a sixteen-server rack at 5 and at 60 live chains, Apply allocates
// within ten objects of each other (each measured on a fresh compile, on one
// P, as testing.AllocsPerRun counts); rendering every device per Apply took
// it from ~140 to ~230.
func TestApplyAdmitCostFlatInLiveChains(t *testing.T) {
	const most = 60
	var src strings.Builder
	for id := 0; id <= most; id++ {
		src.WriteString(costChain(id))
	}
	chains, err := nfspec.Parse(src.String())
	if err != nil {
		t.Fatal(err)
	}
	graphs := make([]*nfgraph.Graph, len(chains))
	for i, c := range chains {
		if graphs[i], err = nfgraph.Build(c); err != nil {
			t.Fatal(err)
		}
	}
	cost := func(live int) float64 {
		in := &placer.Input{Topo: hw.NewPaperTestbed(hw.WithServers(16)), DB: profile.DefaultDB(),
			Restrict: evalRestrict, HeadroomCores: 2, Chains: graphs[:live:live]}
		res, err := placer.Place(placer.SchemeLemur, in)
		if err != nil || !res.Feasible {
			t.Fatalf("%d chains: %v %+v", live, err, res)
		}
		grown := *in
		grown.Chains = graphs[: live+1 : live+1]
		dl := placer.Delta{Admit: []int{live}}
		rep, err := placer.Reconfigure(res, &grown, dl)
		if err != nil || rep.Outcome != placer.AdmitIncremental {
			t.Fatalf("admit at %d chains: %v %+v", live, err, rep)
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		const runs = 5
		var total uint64
		for i := 0; i <= runs; i++ {
			d, err := Compile(in, res)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := d.Apply(&grown, rep.Result, dl); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if i > 0 { // the first Apply warms up
				total += after.Mallocs - before.Mallocs
			}
		}
		return float64(total) / runs
	}
	small, large := cost(5), cost(60)
	t.Logf("one-chain admit Apply: %.0f objects at 5 live chains, %.0f at 60", small, large)
	if large > small+10 {
		t.Errorf("a one-chain admission's Apply allocates %.0f objects at 60 live chains, %.0f at 5: cost grows with the rack", large, small)
	}
}
