package placer

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/lp"
)

// referenceSolveRates is the rate program as it was solved before it spanned
// the live chain slots only: a column and a bound row for every slot, a
// retired one held to [0, 0] with its t_min zeroed. Kept as the oracle for
// TestRateLPMatchesFullWidth. It reads ev's Result, ledger and prep and
// writes none of them; it returns the per-slot rates and the solution.
func referenceSolveRates(ev *evalScratch) ([]float64, lp.Solution, string, bool) {
	in, res, p := ev.in, ev.res, ev.p
	n := len(in.Chains)
	tmin := slices.Clone(p.tmins)
	for i := range tmin {
		if res.IsRetired(i) {
			tmin[i] = 0
		}
	}
	var A [][]float64
	var B []float64
	for i, g := range in.Chains {
		ub := minF(chainCapBps(in, res, i), g.Chain.SLO.TMaxBps)
		ub = minF(ub, in.Topo.Switch.PortCapacityBps)
		if res.IsRetired(i) {
			ub = 0
		}
		if ub < tmin[i]-1e-6 {
			return nil, lp.Solution{}, fmt.Sprintf("chain %s: capacity %.3g bps < t_min %.3g bps",
				g.Chain.Name, ub, tmin[i]), false
		}
		row := make([]float64, n)
		row[i] = 1
		A, B = append(A, row), append(B, ub-tmin[i])
	}

	var links []lpLink
	visit := func(dev string, cap float64, chain int, w float64) {
		for i := range links {
			if links[i].dev == dev {
				links[i].visits[chain] += w
				return
			}
		}
		links = append(links, lpLink{dev: dev, cap: cap, visits: make([]float64, n)})
		links[len(links)-1].visits[chain] += w
	}
	for si, sg := range res.Subgroups {
		visit(sg.Server, in.Topo.Servers[ev.srvOf[si]].NICs[0].CapacityBps, sg.ChainIdx, sg.Weight)
	}
	for _, u := range res.NICUses {
		nic := p.nics[u.Device]
		if nic == nil {
			return nil, lp.Solution{}, fmt.Sprintf("%v: smartnic %q", hw.ErrNotFound, u.Device), false
		}
		visit(u.Device, nic.CapacityBps, u.ChainIdx, u.Weight)
	}
	for _, l := range links {
		fixed := 0.0
		for i, m := range l.visits {
			fixed += m * tmin[i]
		}
		if fixed > l.cap+1e-6 {
			return nil, lp.Solution{}, fmt.Sprintf("link %s: t_min traffic %.3g bps exceeds capacity %.3g bps",
				l.dev, fixed, l.cap), false
		}
		A, B = append(A, l.visits), append(B, l.cap-fixed)
	}

	sol, err := lp.Solve(lp.Problem{C: p.ones, A: A, B: B})
	if err != nil {
		return nil, lp.Solution{}, fmt.Sprintf("rate LP: %v", err), false
	}
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = tmin[i] + sol.X[i]
	}
	return rates, sol, "", true
}

// lpVersusReference solves the rate program of res's structure and cores on
// a fresh scratch, over live slots and full-width, and reports every
// difference: verdicts and reasons equal; rates, marginal and aggregate
// equal bit for bit, a retired slot's rate +0; and the full-width solve
// taking exactly one pivot more per retired slot. res itself is not written.
// It returns whether the program solved.
func lpVersusReference(t *testing.T, label string, in *Input, res *Result) bool {
	t.Helper()
	cp := *res
	cp.ChainRates, cp.Marginal, cp.PredictedAggregate = nil, 0, 0
	ev := newEvalScratch(in)
	if reason, ok := ev.adopt(&cp); !ok {
		t.Fatalf("%s: adopt: %s", label, reason)
	}
	want, wantSol, wantReason, wantOK := referenceSolveRates(ev)
	sol, _, _, _ := ev.solveLP()
	iterations := sol.Iterations
	reason, ok := ev.solveRates()
	if ok != wantOK || reason != wantReason {
		t.Fatalf("%s: live-slot LP ok=%v %q, full-width ok=%v %q", label, ok, reason, wantOK, wantReason)
	}
	if !ok {
		return false
	}
	retired, agg := 0, 0.0
	for i, r := range want {
		agg += r
		if res.IsRetired(i) {
			retired++
			if math.Float64bits(cp.ChainRates[i]) != 0 {
				t.Errorf("%s: retired slot %d rated %v, want +0", label, i, cp.ChainRates[i])
			}
		}
		if math.Float64bits(cp.ChainRates[i]) != math.Float64bits(r) {
			t.Errorf("%s: slot %d rate %v, full-width %v", label, i, cp.ChainRates[i], r)
		}
	}
	if math.Float64bits(cp.Marginal) != math.Float64bits(wantSol.Value) {
		t.Errorf("%s: marginal %v, full-width %v", label, cp.Marginal, wantSol.Value)
	}
	if math.Float64bits(cp.PredictedAggregate) != math.Float64bits(agg) {
		t.Errorf("%s: aggregate %v, full-width %v", label, cp.PredictedAggregate, agg)
	}
	if wantSol.Iterations-iterations != retired {
		t.Errorf("%s: %d pivots, full-width %d, want %d fewer (one per retired slot)",
			label, iterations, wantSol.Iterations, retired)
	}
	return true
}

// withCores copies res with its own subgroups, subgroup si's cores moved by
// delta.
func withCores(res *Result, si, delta int) *Result {
	cp := *res
	cp.Subgroups = make([]*Subgroup, len(res.Subgroups))
	for i, sg := range res.Subgroups {
		c := *sg
		cp.Subgroups[i] = &c
	}
	cp.Subgroups[si].Cores += delta
	return &cp
}

// lpVersusReferenceAround checks res's program and, for every subgroup, the
// programs with one core more, one fewer and a single one (some of which
// miss a t_min, so refusals are compared too). It returns how many solved
// and how many were refused.
func lpVersusReferenceAround(t *testing.T, label string, in *Input, res *Result) (solved, refused int) {
	t.Helper()
	count := func(ok bool) {
		if ok {
			solved++
		} else {
			refused++
		}
	}
	count(lpVersusReference(t, label, in, res))
	for si, sg := range res.Subgroups {
		moves := []int{1}
		if sg.Cores > 1 {
			moves = append(moves, -1)
		}
		if sg.Cores > 2 {
			moves = append(moves, 1-sg.Cores)
		}
		for _, d := range moves {
			count(lpVersusReference(t, fmt.Sprintf("%s sg%d%+d", label, si, d), in, withCores(res, si, d)))
		}
	}
	return solved, refused
}

// TestRateLPMatchesFullWidth: the rate program over the live slots gives the
// full-width program's rates, marginal and aggregate bit for bit and its
// refusals word for word, with one pivot fewer per retired slot — on
// drawCombined's random retire/admit/fail deltas (and the retirement alone),
// with every subgroup a core either way, and on the edge cases: every chain
// retired, slot 0 retired, the last slot retired, and an admission after a
// retirement.
func TestRateLPMatchesFullWidth(t *testing.T) {
	solved, refused, withRetired := 0, 0, 0
	check := func(label string, in *Input, res *Result) {
		t.Helper()
		s, r := lpVersusReferenceAround(t, label, in, res)
		solved, refused = solved+s, refused+r
		if res.Retired != nil {
			withRetired += s
		}
	}

	rng := rand.New(rand.NewSource(2501))
	for trial := 0; trial < 40; trial++ {
		d := drawCombined(t, rng)
		prev, err := Place(SchemeLemur, d.baseIn)
		if err != nil {
			t.Fatal(err)
		}
		if !prev.Feasible {
			continue
		}
		check(fmt.Sprintf("trial %d placed", trial), d.baseIn, prev)
		for _, delta := range []Delta{d.delta, {Retire: d.delta.Retire}} {
			in := d.grownIn
			if len(delta.Admit) == 0 {
				in = d.baseIn
			}
			rep, err := Reconfigure(prev, in, delta)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Outcome == AdmitIncremental {
				check(fmt.Sprintf("trial %d %+v", trial, delta), in, rep.Result)
			}
		}
	}

	const spec = tailOK + tailEnc + tailLim + tailHeavy
	reconfigure := func(prev *Result, in *Input, d Delta) *Result {
		t.Helper()
		rep, err := Reconfigure(prev, in, d)
		if err != nil || rep.Outcome != AdmitIncremental {
			t.Fatalf("%+v: %v %v", d, err, rep)
		}
		return rep.Result
	}
	grown := mustInput(t, hw.NewPaperTestbed(hw.WithServers(2)), spec)
	in := prefixInput(grown, 3)
	prev, err := Place(SchemeLemur, in)
	if err != nil || !prev.Feasible {
		t.Fatalf("fixture: %v %v", err, prev)
	}
	for _, c := range []struct {
		name   string
		retire []int
	}{{"every chain retired", []int{0, 1, 2}}, {"slot 0 retired", []int{0}}, {"last slot retired", []int{2}}} {
		check(c.name, in, reconfigure(prev, in, Delta{Retire: c.retire}))
	}
	gone := reconfigure(prev, in, Delta{Retire: []int{1}})
	check("admit after retire", grown, reconfigure(gone, grown, Delta{Admit: []int{3}}))

	t.Logf("%d programs solved (%d with a retired slot), %d refused", solved, withRetired, refused)
	if withRetired < 100 || refused < 10 {
		t.Fatalf("%d solved programs with a retired slot, %d refusals; property under-exercised", withRetired, refused)
	}
}
