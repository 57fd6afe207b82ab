package placer

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/nfgraph"
	"lemur/internal/nfspec"
	"lemur/internal/obs"
	"lemur/internal/profile"
)

// combinedDraw is one seeded (topology, chain set, delta) draw: a rack of
// 2-4 servers running nBase chains, and one delta that retires one of them,
// admits a tail of one or two more and fails a device, all at once.
type combinedDraw struct {
	baseIn, grownIn *Input
	delta           Delta
}

func drawCombined(t *testing.T, rng *rand.Rand) combinedDraw {
	t.Helper()
	opts := []hw.TestbedOption{hw.WithServers(2 + rng.Intn(3))}
	if rng.Intn(2) == 0 {
		opts = append(opts, hw.WithSmartNIC())
	}
	topo := hw.NewPaperTestbed(opts...)
	nBase, nAdmit := 2+rng.Intn(2), 1+rng.Intn(2)
	src := ""
	for c := 0; c < nBase+nAdmit; c++ {
		src += randomChainSpec(rng, c)
	}
	chains, err := nfspec.Parse(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	grown := &Input{Topo: topo, DB: profile.DefaultDB(), Restrict: evalRestrict, HeadroomCores: 2 + rng.Intn(3)}
	for _, ch := range chains {
		g, err := nfgraph.Build(ch)
		if err != nil {
			t.Fatal(err)
		}
		grown.Chains = append(grown.Chains, g)
	}
	d := combinedDraw{baseIn: prefixInput(grown, nBase), grownIn: grown}
	d.delta.Retire = []int{rng.Intn(nBase)}
	for ci := nBase; ci < nBase+nAdmit; ci++ {
		d.delta.Admit = append(d.delta.Admit, ci)
	}
	victim := topo.Servers[rng.Intn(len(topo.Servers))].Name
	if len(topo.SmartNICs) > 0 && rng.Intn(3) == 0 {
		victim = topo.SmartNICs[0].Name
	}
	d.delta.Failed = NewNodeSet(victim)
	return d
}

// nicUsesByChain groups a result's NIC-use pointers by chain slot.
func nicUsesByChain(uses []*NICUse) map[int][]*NICUse {
	out := map[int][]*NICUse{}
	for _, u := range uses {
		out[u.ChainIdx] = append(out[u.ChainIdx], u)
	}
	return out
}

// TestReconfigureCombinedDelta: over 80 seeded draws where ONE call retires
// a chain, admits a tail and fails a device, every untouched chain keeps its
// *Subgroup and *NICUse pointers and its assignments, nothing lands on a dead
// device, the retired slot is stripped and every running chain holds t_min —
// and whenever the three-call composition Retire → Admit → Replace finds a
// placement, so does the single call. Marginal throughput is compared in
// aggregate over the draws, not per draw: both are greedy (spare cores go to
// the touched chains one after another — in index order here, in event order
// there), so each wins some draws; the one call must give up nothing overall.
func TestReconfigureCombinedDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(150915))
	incremental, sequentialOK := 0, 0
	singleSum, sequentialSum := 0.0, 0.0
	for trial := 0; trial < 80; trial++ {
		d := drawCombined(t, rng)
		prev, err := Place(SchemeLemur, d.baseIn)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !prev.Feasible {
			continue
		}
		snap := snapshotSubgroups(prev.Subgroups)
		prevAssign := cloneAssign(prev.Assign)
		dead := d.delta.Failed.Expand(d.grownIn.Topo)

		rep, err := Reconfigure(prev, d.grownIn, d.delta)
		if err != nil {
			t.Fatalf("trial %d: Reconfigure: %v", trial, err)
		}
		verifySnapshot(t, trial, prev.Subgroups, snap) // prev untouched, whatever the verdict

		// The composition the single call replaces, through the old doors.
		var seq *Result
		if r1, err := Retire(prev, d.baseIn, d.delta.Retire); err == nil {
			if a, err := Admit(r1, d.grownIn, d.delta.Admit); err == nil && a.Outcome == AdmitIncremental {
				seq, _ = Replace(a.Result, d.grownIn, d.delta.Failed)
			}
		}
		if seq != nil {
			sequentialOK++
			if rep.Outcome != AdmitIncremental {
				t.Errorf("trial %d: sequential composition feasible but the single call is %s (%s)",
					trial, rep.Outcome, rep.IncrementalReason)
				continue
			}
			singleSum += rep.Result.Marginal
			sequentialSum += seq.Marginal
		}
		if rep.Outcome != AdmitIncremental {
			if rep.IncrementalReason == "" {
				t.Errorf("trial %d: %s verdict without a reason", trial, rep.Outcome)
			}
			continue
		}
		incremental++
		next := rep.Result
		checkInvariants(t, trial, prev.Scheme, d.grownIn, next)

		touched := map[int]bool{d.delta.Retire[0]: true}
		for _, ci := range AffectedChains(d.baseIn, prev, dead) {
			touched[ci] = true
		}
		prevSubs, nextSubs := subgroupsByChain(prev.Subgroups), subgroupsByChain(next.Subgroups)
		prevNICs, nextNICs := nicUsesByChain(prev.NICUses), nicUsesByChain(next.NICUses)
		pinned := 0
		for ci := range d.baseIn.Chains {
			if touched[ci] {
				continue
			}
			pinned += len(prevSubs[ci])
			if len(prevSubs[ci]) != len(nextSubs[ci]) || len(prevNICs[ci]) != len(nextNICs[ci]) {
				t.Fatalf("trial %d: untouched chain %d changed shape", trial, ci)
			}
			for i, sg := range prevSubs[ci] {
				if nextSubs[ci][i] != sg {
					t.Errorf("trial %d: untouched chain %d subgroup %d is a different object", trial, ci, i)
				}
			}
			for i, u := range prevNICs[ci] {
				if nextNICs[ci][i] != u {
					t.Errorf("trial %d: untouched chain %d NIC use %d is a different object", trial, ci, i)
				}
			}
			for _, n := range d.baseIn.Chains[ci].Order {
				if next.Assign[n] != prevAssign[n] {
					t.Errorf("trial %d: untouched chain %d node %s moved", trial, ci, n.Name())
				}
			}
		}
		if rep.PinnedSubgroups != pinned {
			t.Errorf("trial %d: PinnedSubgroups = %d, want the %d carried by pointer", trial, rep.PinnedSubgroups, pinned)
		}

		gone := d.delta.Retire[0]
		if !next.IsRetired(gone) || next.ChainRates[gone] != 0 || len(nextSubs[gone])+len(nextNICs[gone]) != 0 {
			t.Errorf("trial %d: retired slot %d not stripped", trial, gone)
		}
		for _, n := range d.baseIn.Chains[gone].Order {
			if _, ok := next.Assign[n]; ok {
				t.Errorf("trial %d: retired node %s still assigned", trial, n.Name())
			}
		}
		for n, a := range next.Assign {
			if a.Device != "" && dead[a.Device] {
				t.Errorf("trial %d: node %s assigned to dead device %s", trial, n.Name(), a.Device)
			}
		}
		for _, sg := range next.Subgroups {
			if dead[sg.Server] {
				t.Errorf("trial %d: subgroup %s on dead server %s", trial, sg.Name(), sg.Server)
			}
		}
		for ci, g := range d.grownIn.Chains {
			if tmin := g.Chain.SLO.TMinBps; ci != gone && next.ChainRates[ci] < tmin*(1-1e-9) {
				t.Errorf("trial %d: chain %d below t_min: %g < %g", trial, ci, next.ChainRates[ci], tmin)
			}
		}
	}
	if singleSum < 0.99*sequentialSum {
		t.Errorf("single calls' marginal %.4g bps falls short of the sequential compositions' %.4g bps over %d draws",
			singleSum, sequentialSum, sequentialOK)
	}
	if incremental < 30 || sequentialOK < 20 {
		t.Fatalf("%d incremental verdicts, %d feasible sequential compositions; property under-exercised",
			incremental, sequentialOK)
	}
}

// TestPinHistogramCountsCarriedSubgroups: the pinned-subgroups histogram
// observes subgroups carried by pointer, not prev's subgroups minus the
// number of severed chains — the two part ways as soon as a severed chain
// has more than one subgroup, which the draws must include.
func TestPinHistogramCountsCarriedSubgroups(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	rng := rand.New(rand.NewSource(253))
	multi := 0
	for trial := 0; trial < 60; trial++ {
		in := buildFailoverInput(t, rng)
		prev, err := Place(SchemeLemur, in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !prev.Feasible {
			continue
		}
		failed := NewNodeSet(in.Topo.Servers[rng.Intn(len(in.Topo.Servers))].Name)
		before := mReplacePins.Sum()
		next, err := Replace(prev, in, failed)
		if err != nil {
			continue
		}
		carried, snap := 0, snapshotSubgroups(prev.Subgroups)
		for _, sg := range next.Subgroups {
			if _, ok := snap[sg]; ok {
				carried++
			}
		}
		if got := mReplacePins.Sum() - before; got != float64(carried) {
			t.Errorf("trial %d: histogram observed %v, want the %d subgroups carried by pointer", trial, got, carried)
		}
		if severed := len(AffectedChains(in, prev, failed.Expand(in.Topo))); len(prev.Subgroups)-severed != carried {
			multi++
		}
	}
	if multi < 5 {
		t.Fatalf("only %d draws sever a multi-subgroup chain; property under-exercised", multi)
	}
}

// Tail-bounded fixtures for TestReconfigureEnforcesTailLatency. Each chain's
// t_max caps its rate below its bottleneck's capacity, so the M/M/1 estimate
// is finite — except dp, the TestPlaceInfeasibleReasons case: uncapped, its
// non-replicable Limiter solves at exactly ρ = 1.
const (
	tailOK = "chain ok {\n  slo { tmin = 1Gbps  tmax = 3Gbps  dmax_p99 = 200us }\n" +
		"  aggregate { src = 10.1.0.0/16 }\n  m = Monitor()\n  fwd = IPv4Fwd()\n  m -> fwd\n}\n"
	tailDP = "chain dp {\n  slo { tmin = 100Mbps  dmax_p99 = 50us }\n" +
		"  aggregate { src = 10.9.0.0/16 }\n  lim = Limiter()\n  fwd = IPv4Fwd()\n  lim -> fwd\n}\n"
	tailEnc = "chain enc {\n  slo { tmin = 1Gbps  tmax = 2Gbps  dmax_p99 = 500us }\n" +
		"  aggregate { src = 10.2.0.0/16 }\n  a = ACL()\n  e = Encrypt()\n  fwd = IPv4Fwd()\n  a -> e -> fwd\n}\n"
	tailLim = "chain lim {\n  slo { tmin = 500Mbps  tmax = 5Gbps  dmax_p99 = 100us }\n" +
		"  aggregate { src = 10.3.0.0/16 }\n  lim = Limiter()\n  fwd = IPv4Fwd()\n  lim -> fwd\n}\n"
	// heavy holds 30 of the one server's 40 Gbps link at a fixed rate.
	tailHeavy = "chain heavy {\n  slo { tmin = 30Gbps  tmax = 30Gbps }\n" +
		"  aggregate { src = 10.4.0.0/16 }\n  m = Monitor()\n  fwd = IPv4Fwd()\n  m -> fwd\n}\n"
)

// TestReconfigureEnforcesTailLatency: the incremental door, ReEvaluate and
// the MILP leave through the same finish as Place, so they enforce d_max_p99
// and fill PredictedP99Sec like Place does.
func TestReconfigureEnforcesTailLatency(t *testing.T) {
	reconfigure := func(t *testing.T, prev *Result, in *Input, d Delta) *Report {
		t.Helper()
		rep, err := Reconfigure(prev, in, d)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	place := func(t *testing.T, scheme Scheme, in *Input) *Result {
		t.Helper()
		res, err := Place(scheme, in)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	wantP99Refusal := func(t *testing.T, what string, rep *Report) {
		t.Helper()
		if rep.Outcome == AdmitIncremental || !strings.Contains(rep.IncrementalReason, "d_max_p99") {
			t.Errorf("%s: verdict %s, reason %q; want a refusal naming d_max_p99", what, rep.Outcome, rep.IncrementalReason)
		}
	}

	t.Run("admission breaking its bound is refused", func(t *testing.T) {
		grown := mustInput(t, hw.NewPaperTestbed(), tailOK+tailDP)
		if res := place(t, SchemeLemur, grown); res.Feasible || !strings.Contains(res.Reason, "d_max_p99") {
			t.Fatalf("fixture: Place must refuse ok+dp on d_max_p99, got feasible=%v %q", res.Feasible, res.Reason)
		}
		base := prefixInput(grown, 1)
		prev := place(t, SchemeLemur, base)
		if !prev.Feasible {
			t.Fatalf("fixture: ok alone must place: %s", prev.Reason)
		}
		checkInvariants(t, 0, SchemeLemur, base, prev)
		wantP99Refusal(t, "admit dp", reconfigure(t, prev, grown, Delta{Admit: []int{1}}))

		same := reconfigure(t, prev, base, Delta{})
		if same.Outcome != AdmitIncremental {
			t.Fatalf("re-validation: %s: %s", same.Outcome, same.IncrementalReason)
		}
		if got := same.Result.PredictedP99Sec; !slices.Equal(got, prev.PredictedP99Sec) {
			t.Errorf("re-validation: p99 %v, want prev's %v", got, prev.PredictedP99Sec)
		}
	})

	t.Run("admit, fail, retire keep every bound", func(t *testing.T) {
		grown := mustInput(t, hw.NewPaperTestbed(hw.WithServers(2)), tailOK+tailEnc+tailLim)
		grown.HeadroomCores = 2
		base := prefixInput(grown, 2)
		cur := place(t, SchemeLemur, base)
		if !cur.Feasible {
			t.Fatalf("fixture: %s", cur.Reason)
		}
		checkInvariants(t, 0, SchemeLemur, base, cur)
		failed := NewNodeSet(cur.Subgroups[0].Server)
		for step, d := range []Delta{{Admit: []int{2}}, {Failed: failed}, {Retire: []int{0}, Failed: failed}} {
			rep := reconfigure(t, cur, grown, d)
			if rep.Outcome != AdmitIncremental {
				t.Fatalf("step %d: %s: %s", step, rep.Outcome, rep.IncrementalReason)
			}
			cur = rep.Result
			checkInvariants(t, step+1, SchemeLemur, grown, cur)
		}
	})

	t.Run("retirement lifting a pinned chain to saturation is refused", func(t *testing.T) {
		// heavy and dp share the one server's link: while heavy runs, dp gets
		// the 10 Gbps heavy leaves, a third of its Limiter's capacity. Retiring
		// heavy lets the rate LP lift dp — pinned, untouched — to ρ = 1.
		in := mustInput(t, hw.NewPaperTestbed(), tailHeavy+tailDP)
		prev := place(t, SchemeLemur, in)
		if !prev.Feasible {
			t.Fatalf("fixture: heavy+dp must place: %s", prev.Reason)
		}
		checkInvariants(t, 0, SchemeLemur, in, prev)
		wantP99Refusal(t, "retire heavy", reconfigure(t, prev, in, Delta{Retire: []int{0}}))
		// The door answers what Place answers for the same final chain set.
		alone := mustInput(t, hw.NewPaperTestbed(), tailDP)
		if res := place(t, SchemeLemur, alone); res.Feasible || !strings.Contains(res.Reason, "d_max_p99") {
			t.Errorf("Place(dp alone): feasible=%v %q; want the same d_max_p99 refusal", res.Feasible, res.Reason)
		}
	})

	t.Run("ReEvaluate and MILP fill the prediction", func(t *testing.T) {
		in := mustInput(t, hw.NewPaperTestbed(), tailOK+tailLim)
		heur := place(t, SchemeLemur, in)
		if !heur.Feasible {
			t.Fatalf("fixture: %s", heur.Reason)
		}
		re := ReEvaluate(in, heur)
		if !re.Feasible || !slices.Equal(re.PredictedP99Sec, heur.PredictedP99Sec) {
			t.Errorf("ReEvaluate: feasible=%v (%s) p99 %v, want the placement's %v", re.Feasible, re.Reason, re.PredictedP99Sec, heur.PredictedP99Sec)
		}
		checkInvariants(t, 0, heur.Scheme, in, re)
		milp := place(t, SchemeMILP, in)
		if !milp.Feasible || milp.Reason != "" {
			t.Fatalf("MILP: feasible=%v, reason %q (a fallback is the heuristic's Result)", milp.Feasible, milp.Reason)
		}
		checkInvariants(t, 0, SchemeMILP, in, milp)
	})
}
