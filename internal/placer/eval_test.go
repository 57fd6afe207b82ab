package placer

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/nfgraph"
	"lemur/internal/nfspec"
	"lemur/internal/pisa"
	"lemur/internal/profile"
)

// overflowSpec: n chains whose two Monitors sit either side of a P4-only
// IPv4Fwd, so each chain needs two server subgroups — two cores — wherever
// it lands.
func overflowSpec(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "chain ov%d {\n  slo { tmin = 100Mbps  tmax = 100Gbps }\n  aggregate { src = 10.%d.0.0/16 }\n"+
			"  m1 = Monitor()\n  f1 = IPv4Fwd()\n  m2 = Monitor()\n  f2 = IPv4Fwd()\n  m1 -> f1 -> m2 -> f2\n}\n", i, i)
	}
	return b.String()
}

// tinyFleet is n servers of one worker core each.
func tinyFleet(n int) *hw.Topology {
	topo := hw.NewPaperTestbed(hw.WithServers(n))
	for _, s := range topo.Servers {
		s.Sockets, s.CoresPerSocket, s.ReservedCores = 1, 2, 1
	}
	return topo
}

// TestCoreOverflowReasonDeterministic: when several servers are over their
// core budget at once, the reason names the lowest-index one — every time.
// The ledger used to be a map and the reason followed its iteration order.
func TestCoreOverflowReasonDeterministic(t *testing.T) {
	t.Run("allocateCores", func(t *testing.T) {
		in := mustInput(t, tinyFleet(4), overflowSpec(4))
		for i := 0; i < 200; i++ {
			res, err := Place(SchemeHWPreferred, in)
			if err != nil {
				t.Fatal(err)
			}
			const want = "server nf-server-0: 2 subgroups need 2 cores, has 1"
			if res.Feasible || res.Reason != want {
				t.Fatalf("call %d: feasible=%v reason %q, want %q", i, res.Feasible, res.Reason, want)
			}
		}
	})
	t.Run("allocateCoresReplace", func(t *testing.T) {
		// The same four overloaded servers as a re-placement sees them:
		// every chain fresh, each bound whole to its own server.
		in := mustInput(t, tinyFleet(4), overflowSpec(4))
		in.ensurePrep()
		assign := hwPreferredAssign(in)
		for ci, g := range in.Chains {
			for _, n := range g.Order {
				if a := assign[n]; a.Platform == hw.Server {
					a.Device = in.Topo.Servers[ci].Name
					assign[n] = a
				}
			}
		}
		for i := 0; i < 200; i++ {
			res := &Result{Assign: assign}
			for ci, g := range in.Chains {
				res.Subgroups = append(res.Subgroups, computeSubgroups(in, ci, g, assign)...)
			}
			fresh := make([]bool, len(res.Subgroups))
			for si := range fresh {
				fresh[si] = true
			}
			ev := newEvalScratch(in)
			if reason, ok := ev.adopt(res); !ok {
				t.Fatal(reason)
			}
			const want = "server nf-server-0: needs 2 cores, has 1"
			ev.fresh = fresh
			if reason, ok := ev.allocateCoresReplace(); ok || reason != want {
				t.Fatalf("call %d: ok=%v reason %q, want %q", i, ok, reason, want)
			}
		}
	})
}

// TestResultSharesNoScratchMemory: a returned Result is the caller's.
// Scribbling over the first Result's subgroups, assignment, break marks and
// rates must not reach the evaluation scratch, the templates or the prep:
// placing the same Input again yields a Result deep-equal to a third
// placement and to the first one's canonical rendering before the
// scribbling. Run under -race this also shows no evaluation slot is written
// after its Result was handed out. Reconfigure's Results are held to the
// same across a run of calls in one prep family (reconfigureKeepsResults).
func TestResultSharesNoScratchMemory(t *testing.T) {
	t.Run("Reconfigure", reconfigureKeepsResults)
	for _, scheme := range Schemes() {
		for _, parallel := range []int{1, 4} {
			in := bbFixedInput(t, 4)
			in.Parallel = parallel
			first, err := Place(scheme, in)
			if err != nil {
				t.Fatal(err)
			}
			if !first.Feasible || len(first.Subgroups) == 0 {
				t.Fatalf("%s: fixture must place with server subgroups (reason %q)", scheme, first.Reason)
			}
			want := canonResult(in, first)

			for _, sg := range first.Subgroups {
				sg.Cores, sg.Server, sg.Cycles = 99, "scribbled", -1
				for i := range sg.Nodes {
					sg.Nodes[i] = nil
				}
			}
			for n := range first.Assign {
				first.Assign[n] = Assign{Platform: hw.OpenFlow, Device: "scribbled"}
				if first.Breaks != nil {
					first.Breaks[n] = true
				}
			}
			for i := range first.ChainRates {
				first.ChainRates[i] = -1
			}
			for i := range first.PredictedP99Sec {
				first.PredictedP99Sec[i] = -1
			}

			second, err := Place(scheme, in)
			if err != nil {
				t.Fatal(err)
			}
			if got := canonResult(in, second); got != want {
				t.Fatalf("%s parallel=%d: second placement moved after the first Result was mutated:\n%s\nwant:\n%s",
					scheme, parallel, got, want)
			}
			third, err := Place(scheme, in)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(second, third) {
				t.Fatalf("%s parallel=%d: second and third placements are not deep-equal", scheme, parallel)
			}
			for i, sg := range second.Subgroups {
				if sg == third.Subgroups[i] {
					t.Fatalf("%s: two Results share *Subgroup %s", scheme, sg.Name())
				}
			}
		}
	}
}

// evalFixtureSpec: three chains with replicable and non-replicable NFs, a
// branch, and enough P4-capable NFs for a few dozen patterns each.
const evalFixtureSpec = `
chain ea {
  slo { tmin = 2Gbps  tmax = 100Gbps }
  aggregate { src = 10.0.0.0/16 }
  bpf = BPF()
  acl = ACL()
  nat = NAT()
  enc = Encrypt()
  fwd = IPv4Fwd()
  bpf -> acl -> nat -> enc -> fwd
}
chain eb {
  slo { tmin = 1Gbps  tmax = 100Gbps }
  aggregate { src = 10.1.0.0/16 }
  lb = LB()
  ded = Dedup()
  mon = Monitor()
  tun = Tunnel()
  fwd = IPv4Fwd()
  lb -> [weight = 0.5] ded
  lb -> [weight = 0.5] mon
  ded -> tun
  mon -> tun
  tun -> fwd
}
chain ec {
  slo { tmin = 1Gbps  tmax = 100Gbps }
  aggregate { src = 10.2.0.0/16 }
  lim = Limiter()
  url = UrlFilter()
  det = Detunnel()
  fwd = IPv4Fwd()
  lim -> url -> det -> fwd
}
`

// warmCandidateSlot builds the heaviest pattern combination of the fixture
// (most server subgroups per chain) on a four-server fleet, binds it and
// evaluates it once on a worker of its own, so the worker's scratch is sized
// and the candidate's marginal is the worker's floor: a re-evaluation
// materialises nothing.
func warmCandidateSlot(tb testing.TB) (*Input, *evalWorker, *candSlot) {
	chains, err := nfspec.Parse(evalFixtureSpec)
	if err != nil {
		tb.Fatal(err)
	}
	in := &Input{Topo: hw.NewPaperTestbed(hw.WithServers(4)), DB: profile.DefaultDB(), Restrict: evalRestrict}
	for _, c := range chains {
		g, err := nfgraph.Build(c)
		if err != nil {
			tb.Fatal(err)
		}
		in.Chains = append(in.Chains, g)
	}
	in.ensurePrep()
	slot := &candSlot{}
	for ci, g := range in.Chains {
		pats, err := enumerateChainPatterns(in, ci, g)
		if err != nil {
			tb.Fatal(err)
		}
		best := pats[0]
		for _, p := range pats {
			if len(p.tmpl.subs[0]) > len(best.tmpl.subs[0]) {
				best = p
			}
		}
		slot.cand.tmpls = append(slot.cand.tmpls, best.tmpl)
	}
	slot.cand.srv = bindServers(in, slot.cand.tmpls)
	w := &evalWorker{ev: newEvalScratch(in), top: math.Inf(-1)}
	w.evaluate(slot, policyMarginal, true)
	if !slot.v[0].feasible {
		tb.Fatalf("fixture candidate infeasible: %s", slot.reason)
	}
	if slot.v[0].res == nil {
		tb.Fatal("the first feasible verdict of a round was not materialised")
	}
	return in, w, slot
}

// BenchmarkEvaluateCandidate measures the placer's inner loop: one pattern
// combination stamped into a warm worker scratch and taken through the whole
// back half (stage check, core allocation with its LP hill-climb, latency
// checks, rate LP). Steady state allocates nothing; -benchmem shows it.
func BenchmarkEvaluateCandidate(b *testing.B) {
	_, w, slot := warmCandidateSlot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.evaluate(slot, policyMarginal, true)
	}
}

// TestEvaluateCandidateSteadyStateAllocs: re-evaluating a candidate on a
// warm worker scratch touches no heap — the property the Optimal search's
// cost rests on.
func TestEvaluateCandidateSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops the LP tableau at random under the race detector")
	}
	_, w, slot := warmCandidateSlot(t)
	if a := testing.AllocsPerRun(100, func() { w.evaluate(slot, policyMarginal, true) }); a != 0 {
		t.Errorf("evaluate allocates %.1f objects per call in steady state, want 0", a)
	}
}

// TestStageCheckAllocs: a stage check whose program the compile cache has
// seen lowers the candidate, builds the cache key and reads the verdict
// without touching the heap, for a program that fits and for one that
// overflows the switch (whose reason is the cached error's own string). The
// fixture's switch sets run on the paper's switch, where all of them fit,
// and on one two stages deep, where some do not.
func TestStageCheckAllocs(t *testing.T) {
	in, w, _ := warmCandidateSlot(t)
	var capable []int // dense indices of the nodes with a P4 implementation
	for i, n := range in.prep.nodes {
		if n.Meta.PISA != nil {
			capable = append(capable, i)
		}
	}
	const programs = 200
	if 1<<len(capable) < programs {
		t.Fatalf("fixture has %d P4-capable nodes, too few for %d distinct switch sets", len(capable), programs)
	}
	shallow := *in.Topo.Switch
	shallow.Stages = 2
	fits, overflows := 0, 0
	for _, sw := range []*hw.PISASpec{in.Topo.Switch, &shallow} {
		topo := *in.Topo
		topo.Switch = sw
		in.Topo = &topo
		in.ensurePrep()
		ev := w.ev.bind(in)
		// load puts the mask's subset of the capable nodes on the switch,
		// the rest on servers: a distinct switch program per mask.
		load := func(mask int) {
			for bit, i := range capable {
				p := hw.Server
				if mask>>bit&1 == 1 {
					p = hw.PISA
				}
				ev.assign[i].Platform = p
			}
		}
		for mask := 0; mask < programs; mask++ {
			load(mask)
			if _, ok := ev.stageCheck(); ok { // warms the compile cache and sizes the scratch's buffers
				fits++
			} else {
				overflows++
			}
		}
		// AllocsPerRun rounds down, so one run is a sweep of every program:
		// a single object anywhere in it reads as one.
		before := pisa.SharedCache().Stats()
		allocs := testing.AllocsPerRun(5, func() {
			for mask := 0; mask < programs; mask++ {
				load(mask)
				if reason, ok := ev.stageCheck(); ok != (reason == "") {
					t.Fatalf("%d stages, mask %d: verdict %v with reason %q", sw.Stages, mask, ok, reason)
				}
			}
		})
		if st := pisa.SharedCache().Stats(); st.Misses != before.Misses {
			t.Fatalf("%d stages: the compile cache was not warm: %d misses during the measurement", sw.Stages, st.Misses-before.Misses)
		}
		if allocs != 0 {
			t.Errorf("%d stages: %d stage checks on a warm compile cache allocate %.0f objects, want 0", sw.Stages, programs, allocs)
		}
	}
	if fits == 0 || overflows == 0 {
		t.Fatalf("%d programs fit and %d overflow; the fixture must exercise both verdicts", fits, overflows)
	}
}

// TestTemplateSubgroupsMatchReference: the subgroups a chain template carves
// from its slab, both variants, are computeSubgroupsSplit's — same runs in
// the same order, same nodes, cost, weight and replicability — for every
// pattern of the fixture; and no two lists of one template overlap.
func TestTemplateSubgroupsMatchReference(t *testing.T) {
	in, _, _ := warmCandidateSlot(t)
	same := func(label string, got, want []*Subgroup) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d subgroups, want %d", label, len(got), len(want))
		}
		for i := range want {
			g, w := *got[i], *want[i]
			if !slices.Equal(g.Nodes, w.Nodes) {
				t.Fatalf("%s: subgroup %d holds %s, want %s", label, i, got[i].Name(), want[i].Name())
			}
			if cap(g.Nodes) != len(g.Nodes) {
				t.Fatalf("%s: subgroup %d's node list is not capped: an append would reach its neighbour's", label, i)
			}
			g.Nodes, w.Nodes = nil, nil
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: subgroup %d = %+v, want %+v", label, i, g, w)
			}
		}
	}
	split := 0
	for ci, g := range in.Chains {
		pats, err := enumerateChainPatterns(in, ci, g)
		if err != nil {
			t.Fatal(err)
		}
		for pi, p := range pats {
			assign := map[*nfgraph.Node]Assign{}
			for i, n := range g.Order {
				assign[n] = p.tmpl.assign[i]
			}
			label := fmt.Sprintf("chain %d pattern %d", ci, pi)
			same(label+" unsplit", p.tmpl.subs[0], computeSubgroupsSplit(in, ci, g, assign, nil))
			if p.tmpl.subs[1] == nil {
				continue
			}
			split++
			marks := map[*nfgraph.Node]bool{}
			for _, n := range p.tmpl.breaks {
				marks[n] = true
			}
			same(label+" split", p.tmpl.subs[1], computeSubgroupsSplit(in, ci, g, assign, marks))
			for _, a := range p.tmpl.subs[0] {
				for _, b := range p.tmpl.subs[1] {
					if a == b || &a.Nodes[0] == &b.Nodes[0] {
						t.Fatalf("%s: the two variants share memory", label)
					}
				}
			}
		}
	}
	if split == 0 {
		t.Fatal("fixture has no pattern with split marks")
	}
}
