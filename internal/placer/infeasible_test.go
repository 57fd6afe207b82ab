package placer

import (
	"strings"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/nfgraph"
	"lemur/internal/nfspec"
	"lemur/internal/profile"
)

// mustInput parses an nfspec source against the given topology or fails.
func mustInput(t *testing.T, topo *hw.Topology, src string) *Input {
	t.Helper()
	chains, err := nfspec.Parse(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	in := &Input{Topo: topo, DB: profile.DefaultDB(), Restrict: evalRestrict}
	for _, ch := range chains {
		g, err := nfgraph.Build(ch)
		if err != nil {
			t.Fatal(err)
		}
		in.Chains = append(in.Chains, g)
	}
	return in
}

// tinyServerTestbed shrinks the paper testbed's server to a single worker
// core, to force the mandatory-core infeasibility without huge chain sets.
func tinyServerTestbed() *hw.Topology {
	topo := hw.NewPaperTestbed()
	for _, s := range topo.Servers {
		s.Sockets = 1
		s.CoresPerSocket = 2
		s.ReservedCores = 1
		for _, n := range s.NICs {
			n.Socket = 0
		}
	}
	return topo
}

// checkInfeasibleShape asserts the documented contract for an infeasible
// Result: Feasible=false with a non-empty Reason, no chain rates (callers
// key on Feasible, but a stale rate vector would make misuse look sane),
// and — whether the maps are nil (early infeasible()) or partially
// populated (finish-stage failures) — every accessor pattern downstream
// code uses must be safe: map reads, range loops, and full rendering.
func checkInfeasibleShape(t *testing.T, in *Input, res *Result, wantReason string) {
	t.Helper()
	if res == nil {
		t.Fatal("infeasible placement returned nil Result")
	}
	if res.Feasible {
		t.Fatalf("placement unexpectedly feasible (marginal %v)", res.Marginal)
	}
	if res.Reason == "" {
		t.Fatal("infeasible Result carries no Reason")
	}
	if !strings.Contains(res.Reason, wantReason) {
		t.Fatalf("Reason %q does not mention %q", res.Reason, wantReason)
	}
	if len(res.ChainRates) != 0 {
		t.Fatalf("infeasible Result still carries chain rates %v", res.ChainRates)
	}
	if res.PredictedAggregate != 0 || res.Marginal != 0 {
		t.Fatalf("infeasible Result carries nonzero rate summary: agg=%v marginal=%v",
			res.PredictedAggregate, res.Marginal)
	}
	// Exercise every access pattern a consumer might use against the
	// possibly-nil maps/slices; none may panic.
	for _, g := range in.Chains {
		for _, n := range g.Order {
			_ = res.Assign[n]
			_ = res.Breaks[n]
		}
	}
	for _, sg := range res.Subgroups {
		if sg == nil {
			t.Fatal("infeasible Result holds a nil *Subgroup")
		}
		_ = sg.Name()
	}
	for _, u := range res.NICUses {
		_ = u.Node.Name()
	}
	if s := canonicalResult(in, res); !strings.Contains(s, "feasible=false") {
		t.Fatalf("canonical render lost feasibility: %s", s)
	}
}

// TestPlaceInfeasibleReasons drives Place into every distinct infeasibility
// reason the pipeline can produce — PISA stage overflow, mandatory-core
// exhaustion, non-replicable t_min, t_min raise exhaustion, d_max
// violation, chain capacity below t_min, and link oversubscription — and
// audits the shape of each returned Result (nil-map safety, no stale
// rates, a reason string a user can act on).
func TestPlaceInfeasibleReasons(t *testing.T) {
	cases := []struct {
		name       string
		topo       *hw.Topology
		src        string
		wantReason string
	}{
		{
			// A PISA-only chain asking for more than the 100G ingress port:
			// the rate LP's upper bound drops below t_min.
			name: "capacity below t_min",
			topo: hw.NewPaperTestbed(),
			src: "chain cap {\n  slo { tmin = 150Gbps  tmax = 200Gbps }\n" +
				"  aggregate { src = 10.9.0.0/16 }\n  fa = IPv4Fwd()\n  fb = IPv4Fwd()\n  fa -> fb\n}\n",
			wantReason: "t_min",
		},
		{
			// Limiter is non-replicable (shared token-bucket state); a t_min
			// past its single-core capacity cannot be met by adding cores.
			name: "non-replicable t_min",
			topo: hw.NewPaperTestbed(),
			src: "chain nr {\n  slo { tmin = 38Gbps  tmax = 100Gbps }\n" +
				"  aggregate { src = 10.9.0.0/16 }\n  lim = Limiter()\n  fwd = IPv4Fwd()\n  lim -> fwd\n}\n",
			wantReason: "not replicable",
		},
		{
			// Encrypt is replicable but ~8.8k cycles/pkt: meeting 35Gbps
			// needs more worker cores than the server has.
			name: "out of cores raising to t_min",
			topo: hw.NewPaperTestbed(),
			src: "chain oc {\n  slo { tmin = 35Gbps  tmax = 100Gbps }\n" +
				"  aggregate { src = 10.9.0.0/16 }\n  e = Encrypt()\n  fwd = IPv4Fwd()\n  e -> fwd\n}\n",
			wantReason: "out of cores",
		},
		{
			// Two server-bound chains whose t_min sum oversubscribes the
			// single 40G server NIC even though each fits alone.
			name: "link oversubscription",
			topo: hw.NewPaperTestbed(),
			src: "chain la {\n  slo { tmin = 25Gbps  tmax = 100Gbps }\n" +
				"  aggregate { src = 10.1.0.0/16 }\n  m = Monitor()\n  fwd = IPv4Fwd()\n  m -> fwd\n}\n" +
				"chain lb {\n  slo { tmin = 25Gbps  tmax = 100Gbps }\n" +
				"  aggregate { src = 10.2.0.0/16 }\n  m = Monitor()\n  fwd = IPv4Fwd()\n  m -> fwd\n}\n",
			wantReason: "exceeds capacity",
		},
		{
			// One worker core, two chains that each need a server subgroup:
			// the mandatory one-core-per-subgroup check fails.
			name: "mandatory cores exceed budget",
			topo: tinyServerTestbed(),
			src: "chain ma {\n  slo { tmin = 100Mbps  tmax = 100Gbps }\n" +
				"  aggregate { src = 10.1.0.0/16 }\n  m = Monitor()\n  fwd = IPv4Fwd()\n  m -> fwd\n}\n" +
				"chain mb {\n  slo { tmin = 100Mbps  tmax = 100Gbps }\n" +
				"  aggregate { src = 10.2.0.0/16 }\n  m = Monitor()\n  fwd = IPv4Fwd()\n  m -> fwd\n}\n",
			wantReason: "subgroups need",
		},
		{
			// A d_max above the propagation floor (switch pipeline + the
			// mandatory server round trip, 11us here) but tighter than the
			// floor plus Encrypt's service time: the placement-specific
			// worst-path check fires.
			name: "d_max violation",
			topo: hw.NewPaperTestbed(),
			src: "chain dm {\n  slo { tmin = 100Mbps  tmax = 100Gbps  dmax = 12us }\n" +
				"  aggregate { src = 10.9.0.0/16 }\n  e = Encrypt()\n  fwd = IPv4Fwd()\n  e -> fwd\n}\n",
			wantReason: "d_max",
		},
		{
			// A d_max below even the propagation floor — Encrypt cannot run
			// on the switch, so no placement avoids the two hop latencies.
			// Must be called out as unsatisfiable-by-any-placement, not
			// blamed on this placement's paths.
			name: "d_max below propagation floor",
			topo: hw.NewPaperTestbed(),
			src: "chain df {\n  slo { tmin = 100Mbps  tmax = 100Gbps  dmax = 2us }\n" +
				"  aggregate { src = 10.9.0.0/16 }\n  e = Encrypt()\n  fwd = IPv4Fwd()\n  e -> fwd\n}\n",
			wantReason: "below the best-case propagation delay",
		},
		{
			// A non-replicable Limiter with no t_max solves at exactly its
			// single-core capacity (ρ = 1), so the M/M/1 tail estimate is
			// unbounded and the d_max_p99 admission check rejects the
			// operating point.
			name: "d_max_p99 violation",
			topo: hw.NewPaperTestbed(),
			src: "chain dp {\n  slo { tmin = 100Mbps  dmax_p99 = 50us }\n" +
				"  aggregate { src = 10.9.0.0/16 }\n  lim = Limiter()\n  fwd = IPv4Fwd()\n  lim -> fwd\n}\n",
			wantReason: "d_max_p99",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := mustInput(t, tc.topo, tc.src)
			res, err := Place(SchemeLemur, in)
			if err != nil {
				t.Fatalf("Place returned a hard error (want infeasible Result): %v", err)
			}
			checkInfeasibleShape(t, in, res, tc.wantReason)
		})
	}
}

// TestPlaceInfeasiblePISAStages overflows the Tofino stage budget with a
// long dependent chain of PISA-restricted NFs that has no server-capable
// eviction victim, forcing the "pisa: ..." compile-reject path. The
// compiler's error names its package once; the reason must not name it again.
func TestPlaceInfeasiblePISAStages(t *testing.T) {
	src := "chain ps {\n  slo { tmin = 100Mbps  tmax = 100Gbps }\n  aggregate { src = 10.9.0.0/16 }\n"
	names := []string{}
	for i := 0; i < 30; i++ {
		src += strings.Replace("  fN = IPv4Fwd()\n", "N", string(rune('a'+i%26))+string(rune('a'+i/26)), 1)
		names = append(names, "f"+string(rune('a'+i%26))+string(rune('a'+i/26)))
	}
	src += "  " + strings.Join(names, " -> ") + "\n}\n"
	in := mustInput(t, hw.NewPaperTestbed(), src)
	res, err := Place(SchemeLemur, in)
	if err != nil {
		t.Fatalf("Place returned a hard error: %v", err)
	}
	checkInfeasibleShape(t, in, res, "pisa:")
	if n := strings.Count(res.Reason, "pisa:"); n != 1 {
		t.Errorf("reason %q names pisa: %d times, want once", res.Reason, n)
	}
}

// TestPlaceInfeasibleAcrossSchemes: every scheme must return the same
// shape contract for an impossible input, not just Lemur.
func TestPlaceInfeasibleAcrossSchemes(t *testing.T) {
	src := "chain xs {\n  slo { tmin = 150Gbps  tmax = 200Gbps }\n" +
		"  aggregate { src = 10.9.0.0/16 }\n  fa = IPv4Fwd()\n  fb = IPv4Fwd()\n  fa -> fb\n}\n"
	for _, sch := range []Scheme{SchemeLemur, SchemeHWPreferred, SchemeGreedy, SchemeMinBounce} {
		t.Run(string(sch), func(t *testing.T) {
			in := mustInput(t, hw.NewPaperTestbed(), src)
			res, err := Place(sch, in)
			if err != nil {
				t.Fatalf("Place(%s) hard error: %v", sch, err)
			}
			checkInfeasibleShape(t, in, res, "")
		})
	}
}
