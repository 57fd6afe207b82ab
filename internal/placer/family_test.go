package placer

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"lemur/internal/hw"
)

// familyFixture places five cheap chains on four servers. It returns the
// input, which carries its prep family, the placement, and the input over
// every fixture chain, whose tail the tests admit.
func familyFixture(t *testing.T) (in *Input, cur *Result, all *Input) {
	t.Helper()
	var src strings.Builder
	for id := 0; id < 12; id++ {
		src.WriteString(costChain(id))
	}
	src.WriteString(`chain huge {
  slo { tmin = 500Gbps  tmax = 1000Gbps }
  aggregate { src = 10.251.0.0/16 }
  mon0 = Monitor()
  fwd0 = IPv4Fwd()
  mon0 -> fwd0
}
`)
	all = mustInput(t, hw.NewPaperTestbed(hw.WithServers(4)), src.String())
	all.HeadroomCores = 2
	in = prefixInput(all, 5)
	cur, err := Place(SchemeLemur, in)
	if err != nil || !cur.Feasible {
		t.Fatalf("fixture: %v %v", err, cur)
	}
	return in, cur, all
}

// familyCall is one Reconfigure of a run: the chains admitted on top of the
// input (by index into the fixture's chains), and the rest of the delta.
type familyCall struct {
	admit  []int
	retire []int
	failed []string
}

// input is in grown by the call's admissions, as lemurd grows it: a copy
// carrying in's prep.
func (c familyCall) input(in, all *Input) (*Input, Delta) {
	grown := *in
	d := Delta{Retire: c.retire}
	if len(c.failed) > 0 {
		d.Failed = NewNodeSet(c.failed...)
	}
	if len(c.admit) > 0 {
		grown.Chains = slices.Clone(in.Chains)
		for _, id := range c.admit {
			d.Admit = append(d.Admit, len(grown.Chains))
			grown.Chains = append(grown.Chains, all.Chains[id])
		}
	}
	return &grown, d
}

// reconfigure runs the call on in and, on a copy of in whose prep is dropped,
// in no family at all; the two Reports must agree and, the second having
// been given none of the family's memory, stand for the right answer.
func (c familyCall) reconfigure(t *testing.T, label string, prev *Result, in, all *Input) (*Report, *Input) {
	t.Helper()
	grown, d := c.input(in, all)
	rep, err := Reconfigure(prev, grown, d)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	fresh := *grown
	fresh.prep = nil
	want, err := Reconfigure(prev, &fresh, d)
	if err != nil {
		t.Fatalf("%s (fresh input): %v", label, err)
	}
	if diff := reportDiff(rep, want); diff != "" {
		t.Fatalf("%s: the call in the family differs from the call on a fresh input: %s", label, diff)
	}
	return rep, grown
}

// reportDiff names how got differs from want, "" when it does not.
func reportDiff(got, want *Report) string {
	g, w := *got, *want
	g.Result, w.Result = nil, nil
	g.Repack, w.Repack, g.RepackInput, w.RepackInput = nil, nil, nil, nil
	switch {
	case !reflect.DeepEqual(g, w):
		return fmt.Sprintf("report %+v, want %+v", g, w)
	case (got.Result == nil) != (want.Result == nil):
		return "one Result is nil"
	case !reflect.DeepEqual(got.Result, want.Result):
		return "Result"
	case (got.Repack == nil) != (want.Repack == nil):
		return "one Repack is nil"
	case !reflect.DeepEqual(got.Repack, want.Repack):
		return "Repack"
	}
	return ""
}

// deepCopy is a Result that shares no memory with res.
func deepCopy(res *Result) *Result {
	c := *res
	c.Assign, c.Breaks = maps.Clone(res.Assign), maps.Clone(res.Breaks)
	c.Subgroups, c.NICUses = nil, nil
	for _, sg := range res.Subgroups {
		cp := *sg
		cp.Nodes = slices.Clone(sg.Nodes)
		c.Subgroups = append(c.Subgroups, &cp)
	}
	for _, u := range res.NICUses {
		cp := *u
		c.NICUses = append(c.NICUses, &cp)
	}
	c.ChainRates, c.PredictedP99Sec = slices.Clone(res.ChainRates), slices.Clone(res.PredictedP99Sec)
	c.Retired = slices.Clone(res.Retired)
	return &c
}

// reconfigureKeepsResults is TestResultSharesNoScratchMemory for the
// incremental door, whose calls share their prep family's scratch: a run of
// admissions, retirements and failures in one family, each call's Report
// equal to the same call's on a fresh input, and every Result still reading,
// once the run is over, as it did when it was returned.
func reconfigureKeepsResults(t *testing.T) {
	in, cur, all := familyFixture(t)
	run := []familyCall{
		{admit: []int{5}},
		{retire: []int{0}},
		{failed: []string{"nf-server-1"}},
		{admit: []int{6}, failed: []string{"nf-server-1"}},
		{retire: []int{2}, failed: []string{"nf-server-1"}},
		{admit: []int{7, 8}, retire: []int{3}, failed: []string{"nf-server-1", "nf-server-2"}},
	}
	type kept struct {
		res, copy *Result
	}
	var results []kept
	for i, c := range run {
		rep, grown := c.reconfigure(t, fmt.Sprintf("call %d", i), cur, in, all)
		if rep.Outcome != AdmitIncremental {
			t.Fatalf("call %d: %v (%s)", i, rep.Outcome, rep.IncrementalReason)
		}
		results = append(results, kept{rep.Result, deepCopy(rep.Result)})
		cur, in = rep.Result, grown
	}
	for i, r := range results {
		if !reflect.DeepEqual(r.res, r.copy) {
			t.Fatalf("call %d's Result changed after later calls in its family", i)
		}
	}
}

// TestReconfigureAfterInfeasibleMatchesFresh: an admission refused for its
// new chain — asked twice, as lemurd retries it — leaves nothing in the prep
// family that moves the next call. A different admission from the same
// input then, and a retirement, return what they return on a fresh input.
func TestReconfigureAfterInfeasibleMatchesFresh(t *testing.T) {
	in, cur, all := familyFixture(t)
	huge := len(all.Chains) - 1
	for try := 0; try < 2; try++ {
		rep, _ := familyCall{admit: []int{huge}}.reconfigure(t, fmt.Sprintf("refused admission, try %d", try), cur, in, all)
		if rep.Outcome != AdmitInfeasible {
			t.Fatalf("the fixture's huge chain was admitted: %v", rep.Outcome)
		}
	}
	for _, c := range []familyCall{{admit: []int{5}}, {admit: []int{huge}}, {retire: []int{1}}, {admit: []int{5, 6}}} {
		c.reconfigure(t, fmt.Sprintf("%+v after the refusal", c), cur, in, all)
	}
}

// TestConcurrentReconfigureInOneFamily: two goroutines reconfiguring inputs
// of one prep family at once — admissions of different chains from one
// input, a retirement, failures — get the Reports a serial run on fresh
// inputs gets. Under -race this also shows the family's shared state (the
// chain entries, the vector store, the reduced topology, the scratch handed
// to one call at a time) is written only under its lock or handoff.
func TestConcurrentReconfigureInOneFamily(t *testing.T) {
	in, cur, all := familyFixture(t)
	calls := []familyCall{
		{admit: []int{5}},
		{admit: []int{6}},
		{retire: []int{1}},
		{failed: []string{"nf-server-2", "nf-server-3"}},
		{failed: []string{"nf-server-2"}},
		{admit: []int{5}, retire: []int{0}, failed: []string{"nf-server-3"}},
		{admit: []int{7}, failed: []string{"nf-server-2"}},
	}
	want := make([]*Report, len(calls))
	for i, c := range calls {
		want[i], _ = c.reconfigure(t, fmt.Sprintf("serial call %d", i), cur, in, all)
	}
	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan string, 2*rounds*len(calls))
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range calls {
					i := k
					if w == 1 {
						i = len(calls) - 1 - k
					}
					grown, d := calls[i].input(in, all)
					rep, err := Reconfigure(cur, grown, d)
					if err != nil {
						errs <- fmt.Sprintf("worker %d call %d: %v", w, i, err)
						continue
					}
					if diff := reportDiff(rep, want[i]); diff != "" {
						errs <- fmt.Sprintf("worker %d call %d: %s", w, i, diff)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestFamilyScratchAcrossSchemes: an Input placed under every scheme, in
// enumeration order and then in reverse, at Parallel 1 and then 4, carries
// its family's evaluation scratch from call to call. A carried scratch must
// never change a Result or a reason: each call equals the placement of a
// fresh copy of the Input, whose family starts without one; no later call
// changes a Result handed out earlier; and two calls placing in the family
// at once answer the same.
func TestFamilyScratchAcrossSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	inputs := []*Input{
		mustInput(t, hw.NewPaperTestbed(hw.WithServers(4)), evalFixtureSpec),
		mustInput(t, tinyServerTestbed(), evalFixtureSpec),
	}
	for len(inputs) < 8 {
		inputs = append(inputs, buildRandomInput(t, rng))
	}
	schemes := Schemes()
	reversed := slices.Clone(schemes)
	slices.Reverse(reversed)
	infeasible := 0
	for i, base := range inputs {
		base.BruteForceBudget = 200
		want := map[string]string{}
		for _, par := range []int{1, 4} {
			for _, s := range schemes {
				fresh := *base
				fresh.Parallel = par
				res, err := Place(s, &fresh)
				if err != nil {
					t.Fatalf("input %d %s fresh: %v", i, s, err)
				}
				if !res.Feasible {
					infeasible++
				}
				want[fmt.Sprint(s, par)] = canonResult(base, res)
			}
		}
		shared := *base
		type kept struct {
			label string
			res   *Result
		}
		var out []kept
		for _, par := range []int{1, 4} {
			shared.Parallel = par
			for _, order := range [][]Scheme{schemes, reversed} {
				for _, s := range order {
					res, err := Place(s, &shared)
					if err != nil {
						t.Fatalf("input %d %s parallel=%d: %v", i, s, par, err)
					}
					label := fmt.Sprint(s, par)
					if got := canonResult(base, res); got != want[label] {
						t.Fatalf("input %d %s parallel=%d on a carried family scratch differs from a fresh input\n--- fresh ---\n%s\n--- carried ---\n%s",
							i, s, par, want[label], got)
					}
					if shared.prep.fam.scratch.Load() == nil {
						t.Fatalf("input %d %s parallel=%d: the family scratch was not given back", i, s, par)
					}
					out = append(out, kept{label, res})
				}
			}
		}
		for _, k := range out {
			if got := canonResult(base, k.res); got != want[k.label] {
				t.Fatalf("input %d %s: a later call changed a Result handed out earlier\n--- then ---\n%s\n--- now ---\n%s",
					i, k.label, want[k.label], got)
			}
		}
		// Two goroutines placing copies of the Input, which share its
		// family, at once: one of them finds the family scratch taken.
		var wg sync.WaitGroup
		errs := make(chan string, 2*len(schemes))
		for g, order := range [][]Scheme{schemes, reversed} {
			wg.Add(1)
			go func(g int, order []Scheme) {
				defer wg.Done()
				cp := shared
				cp.Parallel = 1 + 3*g
				for _, s := range order {
					res, err := Place(s, &cp)
					if err != nil {
						errs <- fmt.Sprintf("input %d %s goroutine %d: %v", i, s, g, err)
					} else if got := canonResult(base, res); got != want[fmt.Sprint(s, cp.Parallel)] {
						errs <- fmt.Sprintf("input %d %s goroutine %d differs from a fresh input", i, s, g)
					}
				}
			}(g, order)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
	if infeasible == 0 {
		t.Fatal("no placement was infeasible: the fixture does not exercise reasons")
	}
}
