package placer

import (
	"fmt"
	"math/rand"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/nfgraph"
	"lemur/internal/nfspec"
	"lemur/internal/profile"
)

// randomChainSpec builds a random linear chain of 2-6 NFs drawn from a pool
// that always terminates in IPv4Fwd, with a random tmin.
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

// TestPlacementInvariantsProperty: for random chain sets, any feasible
// placement from any scheme must satisfy the §3.1 feasibility definition:
// (a) every chain gets at least t_min; (b) the switch program fits;
// (c) core budgets hold per server; (d) no link is oversubscribed; (e) every
// chain carries a p99 prediction, within d_max_p99 where one is set. Also:
// non-replicable subgroups never get more than one core, and rates never
// exceed t_max.
func TestPlacementInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	schemes := []Scheme{SchemeLemur, SchemeHWPreferred, SchemeGreedy, SchemeMinBounce}
	for trial := 0; trial < 25; trial++ {
		nChains := 1 + rng.Intn(3)
		src := ""
		for c := 0; c < nChains; c++ {
			src += randomChainSpec(rng, c)
		}
		chains, err := nfspec.Parse(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		in := &Input{Topo: hw.NewPaperTestbed(), DB: profile.DefaultDB(), Restrict: evalRestrict}
		for _, ch := range chains {
			g, err := nfgraph.Build(ch)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			in.Chains = append(in.Chains, g)
		}
		for _, scheme := range schemes {
			res, err := Place(scheme, in)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, scheme, err)
			}
			if !res.Feasible {
				continue
			}
			checkInvariants(t, trial, scheme, in, res)
		}
	}
}

// checkInvariants holds a feasible Result — a fresh placement or what the
// incremental door returned, retired slots and all — to the feasibility
// definition. A retired slot must have no rate and no assignment; everything
// else applies to the active chains.
func checkInvariants(t *testing.T, trial int, scheme Scheme, in *Input, res *Result) {
	t.Helper()
	// (a) rates within [tmin, tmax].
	for i, g := range in.Chains {
		if res.IsRetired(i) {
			if res.ChainRates[i] != 0 {
				t.Errorf("trial %d %s: retired chain %d still rated %v", trial, scheme, i, res.ChainRates[i])
			}
			continue
		}
		if res.ChainRates[i] < g.Chain.SLO.TMinBps-1 {
			t.Errorf("trial %d %s: chain %d rate %v < tmin %v",
				trial, scheme, i, res.ChainRates[i], g.Chain.SLO.TMinBps)
		}
		if res.ChainRates[i] > g.Chain.SLO.TMaxBps+1 {
			t.Errorf("trial %d %s: chain %d rate %v > tmax", trial, scheme, i, res.ChainRates[i])
		}
		// Rate must not exceed the placement's own capacity estimate.
		if cap := chainCapBps(in, res, i); res.ChainRates[i] > cap+1 {
			t.Errorf("trial %d %s: chain %d rate %v > capacity %v",
				trial, scheme, i, res.ChainRates[i], cap)
		}
	}
	// (b) stage fit.
	if res.Stages <= 0 || res.Stages > in.Topo.Switch.Stages {
		t.Errorf("trial %d %s: stages = %d (budget %d)", trial, scheme, res.Stages, in.Topo.Switch.Stages)
	}
	// (c) core budgets.
	used := map[string]int{}
	for _, sg := range res.Subgroups {
		if sg.Cores < 1 {
			t.Errorf("trial %d %s: subgroup %s has %d cores", trial, scheme, sg.Name(), sg.Cores)
		}
		if !sg.Replicable && sg.Cores > 1 {
			t.Errorf("trial %d %s: non-replicable %s got %d cores", trial, scheme, sg.Name(), sg.Cores)
		}
		used[sg.Server] += sg.Cores
	}
	for srv, u := range used {
		spec, err := in.Topo.ServerByName(srv)
		if err != nil {
			t.Fatalf("trial %d %s: %v", trial, scheme, err)
		}
		if u > spec.WorkerCores() {
			t.Errorf("trial %d %s: server %s uses %d of %d cores", trial, scheme, srv, u, spec.WorkerCores())
		}
	}
	// (d) link capacities.
	load := map[string]float64{}
	caps := map[string]float64{}
	for _, sg := range res.Subgroups {
		srv, _ := in.Topo.ServerByName(sg.Server)
		load[sg.Server] += sg.Weight * res.ChainRates[sg.ChainIdx]
		caps[sg.Server] = srv.NICs[0].CapacityBps
	}
	for dev, l := range load {
		if l > caps[dev]*1.000001 {
			t.Errorf("trial %d %s: link %s carries %v of %v", trial, scheme, dev, l, caps[dev])
		}
	}
	// (e) a tail-latency prediction per chain slot, and for an active chain
	// with a d_max_p99 a finite one within the bound (+Inf and NaN both fail
	// the comparison).
	if len(res.PredictedP99Sec) != len(in.Chains) {
		t.Errorf("trial %d %s: %d p99 predictions for %d chains", trial, scheme, len(res.PredictedP99Sec), len(in.Chains))
	} else {
		for i, g := range in.Chains {
			if bound := g.Chain.SLO.DMaxP99Sec; bound > 0 && !res.IsRetired(i) && !(res.PredictedP99Sec[i] <= bound) {
				t.Errorf("trial %d %s: chain %d predicted p99 %v against d_max_p99 %v",
					trial, scheme, i, res.PredictedP99Sec[i], bound)
			}
		}
	}
	// Every node of an active chain is assigned to an allowed platform.
	for i, g := range in.Chains {
		for _, n := range g.Order {
			a, ok := res.Assign[n]
			if res.IsRetired(i) {
				if ok {
					t.Errorf("trial %d %s: retired node %s still assigned", trial, scheme, n.Name())
				}
				continue
			}
			if !ok {
				t.Errorf("trial %d %s: %s unassigned", trial, scheme, n.Name())
				continue
			}
			if !in.allows(n, a.Platform) {
				t.Errorf("trial %d %s: %s on disallowed platform %v", trial, scheme, n.Name(), a.Platform)
			}
		}
	}
	// Subgroups partition the server-assigned nodes exactly.
	seen := map[*nfgraph.Node]int{}
	for _, sg := range res.Subgroups {
		for _, n := range sg.Nodes {
			seen[n]++
		}
	}
	for _, g := range in.Chains {
		for _, n := range g.Order {
			want := 0
			if a, ok := res.Assign[n]; ok && a.Platform == hw.Server {
				want = 1
			}
			if seen[n] != want {
				t.Errorf("trial %d %s: node %s appears in %d subgroups, want %d",
					trial, scheme, n.Name(), seen[n], want)
			}
		}
	}
}

// TestLemurDominatesBaselinesProperty: whenever a baseline is feasible on a
// random input, Lemur must be feasible too with at least the same marginal.
func TestLemurDominatesBaselinesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		src := randomChainSpec(rng, 0) + randomChainSpec(rng, 1)
		chains, err := nfspec.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		in := &Input{Topo: hw.NewPaperTestbed(), DB: profile.DefaultDB(), Restrict: evalRestrict}
		for _, ch := range chains {
			g, err := nfgraph.Build(ch)
			if err != nil {
				t.Fatal(err)
			}
			in.Chains = append(in.Chains, g)
		}
		lemur, err := Place(SchemeLemur, in)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range []Scheme{SchemeHWPreferred, SchemeSWPreferred, SchemeGreedy, SchemeMinBounce} {
			base, err := Place(scheme, in)
			if err != nil {
				t.Fatal(err)
			}
			if base.Feasible && !lemur.Feasible {
				t.Errorf("trial %d: %s feasible but Lemur not (%s)", trial, scheme, lemur.Reason)
			}
			if base.Feasible && lemur.Feasible && base.Marginal > lemur.Marginal*1.02+1e6 {
				t.Errorf("trial %d: %s marginal %v > Lemur %v", trial, scheme, base.Marginal, lemur.Marginal)
			}
		}
	}
}
