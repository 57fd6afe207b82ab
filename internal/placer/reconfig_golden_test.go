package placer_test

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"lemur/internal/experiments"
	"lemur/internal/hw"
	"lemur/internal/metacompiler"
	"lemur/internal/nfgraph"
	"lemur/internal/placer"
	"lemur/internal/profile"
)

// The reconfiguration golden: what the incremental entry points (Replace,
// Admit, Retire and the deployment rewires that apply them) decide over a
// fixed matrix of racks and change sequences. testdata/reconfig.golden was
// generated before the three solvers became one Reconfigure; it is the
// byte-identity licence for work behind those entry points, the way
// placements.golden is for Place.
var (
	reconfigSets     = [][]int{{1, 2, 3, 4}, {2, 2, 3, 3}}
	reconfigFleets   = []int{4, 16}
	reconfigHeadroom = []int{0, 4}
	// reconfigAdmits is the cycle of canonical chains the admission runs
	// draw from, light to heavy, so capacity runs out gradually.
	reconfigAdmits = []int{3, 5, 2, 1, 4}
)

const (
	reconfigGoldenPath = "testdata/reconfig.golden"
	// An admission run admits at delta 1.0 for reconfigPlainAdmits steps or
	// until the first verdict that is not incremental, then doubles the
	// admitted chains' t_min every step so the run reaches the infeasible
	// verdict; reconfigMaxAdmits caps a run that never does.
	reconfigPlainAdmits = 8
	reconfigMaxAdmits   = 20
)

// reconfigCell is one rack of the matrix; graph mints a chain for a slot.
type reconfigCell struct {
	desc     string
	set      []int
	topo     *hw.Topology
	headroom int
	bases    map[int]float64 // canonical chain -> base rate on topo
}

func reconfigCells(t testing.TB) []reconfigCell {
	t.Helper()
	db := profile.DefaultDB()
	var cells []reconfigCell
	for _, servers := range reconfigFleets {
		for _, nic := range []bool{false, true} {
			opts := []hw.TestbedOption{hw.WithServers(servers)}
			if nic {
				opts = append(opts, hw.WithSmartNIC())
			}
			topo := hw.NewPaperTestbed(opts...)
			all := []int{1, 2, 3, 4, 5}
			rates, err := experiments.BaseRates(all, topo, db)
			if err != nil {
				t.Fatal(err)
			}
			bases := map[int]float64{}
			for i, idx := range all {
				bases[idx] = rates[i]
			}
			for _, set := range reconfigSets {
				for _, headroom := range reconfigHeadroom {
					cells = append(cells, reconfigCell{
						desc: fmt.Sprintf("servers=%d nic=%v chains=%v headroom=%d", servers, nic, set, headroom),
						set:  set, topo: topo, headroom: headroom, bases: bases,
					})
				}
			}
		}
	}
	return cells
}

// graph builds canonical chain idx for chain slot `slot` at the given delta,
// with a slot-unique name and source aggregate (a set may hold a chain twice,
// and a compiled deployment classifies by aggregate).
func (c *reconfigCell) graph(t testing.TB, idx, slot int, delta float64) *nfgraph.Graph {
	t.Helper()
	src, err := experiments.ChainSpec(idx, delta*c.bases[idx], hw.Gbps(100), 0)
	if err != nil {
		t.Fatal(err)
	}
	src = strings.Replace(src, fmt.Sprintf("chain chain%d {", idx), fmt.Sprintf("chain s%dc%d {", slot, idx), 1)
	src = strings.Replace(src, fmt.Sprintf("src = 10.%d.0.0/16", idx), fmt.Sprintf("src = 10.%d.0.0/16", 32+slot), 1)
	gs, err := experiments.BuildChainsFromSpec(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	return gs[0]
}

// rack is one scenario's live state: the input, its placement and the
// compiled deployment the rewires are applied to.
type rack struct {
	in  *placer.Input
	res *placer.Result
	dep *metacompiler.Deployment
}

// fresh places and compiles the cell's base chain set (fresh graphs, so no
// scenario inherits another's per-input memo). ok is false, with the reason
// rendered, when the base set does not place.
func (c *reconfigCell) fresh(t testing.TB, b *strings.Builder) (*rack, bool) {
	t.Helper()
	in := &placer.Input{Topo: c.topo, DB: profile.DefaultDB(), Restrict: experiments.EvalRestrict,
		HeadroomCores: c.headroom}
	for slot, idx := range c.set {
		in.Chains = append(in.Chains, c.graph(t, idx, slot, 1))
	}
	res, err := placer.Place(placer.SchemeLemur, in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		fmt.Fprintf(b, "base infeasible: %s\n", res.Reason)
		return nil, false
	}
	dep, err := metacompiler.Compile(in, res)
	if err != nil {
		t.Fatal(err)
	}
	return &rack{in: in, res: res, dep: dep}, true
}

// renderReconfigResult is renderPlacement plus the retired slots.
func renderReconfigResult(in *placer.Input, res *placer.Result) string {
	var retired []int
	for ci := range in.Chains {
		if res.IsRetired(ci) {
			retired = append(retired, ci)
		}
	}
	return renderPlacement(in, res) + fmt.Sprintf("retired=%v\n", retired)
}

// replace fails the named devices through Replace + Rewire.
func (r *rack) replace(t testing.TB, b *strings.Builder, names ...string) {
	t.Helper()
	failed := placer.NewNodeSet(names...)
	fmt.Fprintf(b, "-- replace failed=%v\n", failed.Names())
	affected := placer.AffectedChains(r.in, r.res, failed.Expand(r.in.Topo))
	next, err := placer.Replace(r.res, r.in, failed)
	if err != nil {
		fmt.Fprintf(b, "verdict=infeasible reason=%q\n", err.Error())
		return
	}
	fmt.Fprintf(b, "verdict=incremental\n%s", renderReconfigResult(r.in, next))
	rw, err := r.dep.Rewire(next, affected)
	if err != nil {
		t.Fatalf("Rewire: %v", err)
	}
	fmt.Fprintf(b, "%s\n", rw)
	r.res = next
}

// admit grows the input by the given canonical chains at delta and admits
// them through Admit + AdmitChains; only an incremental verdict is applied
// (a full repack is summarised: its placement is Place's, which
// placements.golden already pins).
func (r *rack) admit(t testing.TB, b *strings.Builder, c *reconfigCell, delta float64, idxs ...int) placer.AdmitOutcome {
	t.Helper()
	nOld := len(r.in.Chains)
	grown := *r.in
	grown.Chains = append(make([]*nfgraph.Graph, 0, nOld+len(idxs)), r.in.Chains...)
	var added []int
	for _, idx := range idxs {
		added = append(added, len(grown.Chains))
		grown.Chains = append(grown.Chains, c.graph(t, idx, len(grown.Chains), delta))
	}
	fmt.Fprintf(b, "-- admit chains=%v delta=%v slots=%v\n", idxs, delta, added)
	rep, err := placer.Admit(r.res, &grown, added)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	fmt.Fprintf(b, "verdict=%s reason=%q pinned=%d\n", rep.Outcome, rep.IncrementalReason, rep.PinnedSubgroups)
	switch rep.Outcome {
	case placer.AdmitIncremental:
		b.WriteString(renderReconfigResult(&grown, rep.Result))
		rw, err := r.dep.AdmitChains(&grown, rep.Result, added)
		if err != nil {
			t.Fatalf("AdmitChains: %v", err)
		}
		fmt.Fprintf(b, "%s\n", rw)
		r.in, r.res = &grown, rep.Result
	case placer.AdmitRepack:
		fmt.Fprintf(b, "repack chains=%v stages=%d marginal=%v rates=%v subgroups=%d\n", rep.RepackChains,
			rep.Repack.Stages, rep.Repack.Marginal, rep.Repack.ChainRates, len(rep.Repack.Subgroups))
	}
	return rep.Outcome
}

// retire retires the given slots through Retire + RetireChains.
func (r *rack) retire(t testing.TB, b *strings.Builder, slots ...int) {
	t.Helper()
	fmt.Fprintf(b, "-- retire slots=%v\n", slots)
	next, err := placer.Retire(r.res, r.in, slots)
	if err != nil {
		fmt.Fprintf(b, "verdict=infeasible reason=%q\n", err.Error())
		return
	}
	fmt.Fprintf(b, "verdict=incremental\n%s", renderReconfigResult(r.in, next))
	rw, err := r.dep.RetireChains(next, slots)
	if err != nil {
		t.Fatalf("RetireChains: %v", err)
	}
	fmt.Fprintf(b, "%s\n", rw)
	r.res = next
}

// admitRun admits `per` chains at a time from the admission cycle up to the
// first infeasible verdict (or the cap), passing the first full repack on
// the way when the rack has one.
func (c *reconfigCell) admitRun(t testing.TB, b *strings.Builder, per int) {
	t.Helper()
	r, ok := c.fresh(t, b)
	if !ok {
		return
	}
	delta, escalate, next := 1.0, false, 0
	for step := 0; step < reconfigMaxAdmits; step++ {
		if escalate || step >= reconfigPlainAdmits {
			delta *= 2
		}
		var idxs []int
		for i := 0; i < per; i++ {
			idxs = append(idxs, reconfigAdmits[next%len(reconfigAdmits)])
			next++
		}
		switch r.admit(t, b, c, delta, idxs...) {
		case placer.AdmitInfeasible:
			return
		case placer.AdmitRepack:
			escalate = true
		}
	}
}

// renderReconfigMatrix runs every scenario on every cell.
func renderReconfigMatrix(t testing.TB) string {
	t.Helper()
	var b strings.Builder
	for _, c := range reconfigCells(t) {
		c := c
		scenario := func(name string, run func(r *rack)) {
			fmt.Fprintf(&b, "== %s scenario=%s\n", c.desc, name)
			if r, ok := c.fresh(t, &b); ok {
				run(r)
			}
		}
		servers := c.topo.Servers
		scenario("replace-none", func(r *rack) { r.replace(t, &b) })
		scenario("replace-one-server", func(r *rack) { r.replace(t, &b, servers[0].Name) })
		if len(c.topo.SmartNICs) > 0 {
			scenario("replace-nic", func(r *rack) { r.replace(t, &b, c.topo.SmartNICs[0].Name) })
		}
		scenario("replace-two-servers", func(r *rack) { r.replace(t, &b, servers[1].Name, servers[0].Name) })

		fmt.Fprintf(&b, "== %s scenario=admit-one-at-a-time\n", c.desc)
		c.admitRun(t, &b, 1)
		fmt.Fprintf(&b, "== %s scenario=admit-two-at-a-time\n", c.desc)
		c.admitRun(t, &b, 2)

		last := len(c.set) - 1
		scenario("retire-first", func(r *rack) { r.retire(t, &b, 0) })
		scenario("retire-last", func(r *rack) { r.retire(t, &b, last) })
		scenario("retire-all-but-one", func(r *rack) {
			var slots []int
			for ci := 1; ci <= last; ci++ {
				slots = append(slots, ci)
			}
			r.retire(t, &b, slots...)
		})
		scenario("retire-then-admit", func(r *rack) {
			r.retire(t, &b, 0)
			r.admit(t, &b, &c, 1, c.set[0])
		})
		scenario("admit-then-replace", func(r *rack) {
			r.admit(t, &b, &c, 1, reconfigAdmits[0])
			// Fail the server hosting the most subgroups (lowest name on ties),
			// so the failure severs something.
			count := map[string]int{}
			for _, sg := range r.res.Subgroups {
				count[sg.Server]++
			}
			names := make([]string, 0, len(count))
			for n := range count {
				names = append(names, n)
			}
			sort.Slice(names, func(i, j int) bool {
				if count[names[i]] != count[names[j]] {
					return count[names[i]] > count[names[j]]
				}
				return names[i] < names[j]
			})
			r.replace(t, &b, names[0])
		})
	}
	return b.String()
}

// TestGoldenReconfigure: the reconfiguration matrix renders to the committed
// golden file, byte for byte. Regenerate with -update only for an intended
// change of incremental-placement behaviour.
func TestGoldenReconfigure(t *testing.T) {
	got := renderReconfigMatrix(t)
	if *updateGolden {
		if err := os.WriteFile(reconfigGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(reconfigGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("differs from %s: %s", reconfigGoldenPath, firstDiff(string(want), got))
	}
}
