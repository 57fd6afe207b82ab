package metacompiler

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
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

// applyTrials drives seeded racks through sequences of deltas that admit,
// retire and fail at random (alone and combined). It calls visit after the
// compile of every feasible trial (step -1, an empty delta) and after every
// applied delta, and returns how many deltas it applied.
func applyTrials(t *testing.T, visit func(trial, step int, dl placer.Delta, d *Deployment)) int {
	t.Helper()
	rng := rand.New(rand.NewSource(150915))
	applied := 0
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
		visit(trial, -1, placer.Delta{}, d)
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
			if _, err := d.Apply(next, rep.Result, dl); err != nil {
				t.Fatalf("trial %d step %d: apply: %v", trial, step, err)
			}
			in = next
			applied++
			visit(trial, step, dl, d)
		}
	}
	return applied
}

// TestApplyArtifactsGolden: at the compile and after every delta of
// applyTrials, the deployment's artifacts — a SHA-256 of the P4 program, of
// every BESS script and of every eBPF source, and the line counts — are
// testdata/artifacts.golden's. The file was recorded from Apply's
// incremental render, which copied the text of every chain and server a
// delta left alone, so it also holds a whole render to that one.
func TestApplyArtifactsGolden(t *testing.T) {
	var b strings.Builder
	applyTrials(t, func(trial, step int, dl placer.Delta, d *Deployment) {
		a := d.Artifacts()
		ebpf := 0
		for _, src := range a.EBPFSources {
			ebpf += countLines(src)
		}
		fmt.Fprintf(&b, "trial %d step %d admit=%v retire=%v failed=%v\n", trial, step, dl.Admit, dl.Retire, dl.Failed.Names())
		fmt.Fprintf(&b, "  lines p4=%d steering=%d handwritten=%d bess=%d ebpf=%d\n",
			a.P4TotalLines, a.P4SteeringLines, a.HandwrittenP4Lines, a.BESSLines, ebpf)
		fmt.Fprintf(&b, "  p4 %x\n", sha256.Sum256([]byte(a.P4Source)))
		for _, kind := range []struct {
			name string
			m    map[string]string
		}{{"bess", a.BESSScripts}, {"ebpf", a.EBPFSources}} {
			names := make([]string, 0, len(kind.m))
			for name := range kind.m {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				fmt.Fprintf(&b, "  %s %s %x\n", kind.name, name, sha256.Sum256([]byte(kind.m[name])))
			}
		}
	})
	path := filepath.Join("testdata", "artifacts.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got := b.String(); got != string(want) {
		w, g := strings.Split(string(want), "\n"), strings.Split(got, "\n")
		for i := range w {
			if i >= len(g) || w[i] != g[i] {
				t.Fatalf("artifacts drifted from %s at line %d:\nwant %q\ngot  %q", path, i+1, w[i], g[min(i, len(g)-1)])
			}
		}
		t.Fatalf("artifacts drifted from %s: %d lines, want %d", path, len(g), len(w))
	}
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

// costChain is a cheap two-NF chain, the shape lemurd's reconcile benchmark
// admits.
func costChain(id int) string {
	return fmt.Sprintf("chain c%d {\n  slo { tmin = 500Mbps  tmax = 100Gbps }\n  aggregate { src = 10.%d.0.0/16 }\n"+
		"  mon0 = Monitor()\n  fwd0 = IPv4Fwd()\n  mon0 -> fwd0\n}\n", id, id%250)
}

// TestApplyAdmitCostFlatInLiveChains: applying a one-chain admission costs
// what the admitted chain costs, not what the rack runs. On a sixteen-server
// rack at 5 and at 60 live chains, Apply allocates within ten objects of
// each other (each measured on a fresh compile, on one P, as
// testing.AllocsPerRun counts): ~64 and ~70. A render of every device in
// each Apply grows with the rack (~140 and ~230).
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
