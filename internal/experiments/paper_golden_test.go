package experiments

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/nf"
	"lemur/internal/placer"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/paper.golden")

const paperGoldenPath = "testdata/paper.golden"

// paperDeltas is lemur-bench's -quick δ grid, the one every δ sweep of the
// golden runs over.
var paperDeltas = []float64{0.5, 1.0, 1.5, 2.0}

// paperDoc accumulates the golden rendering. Floats print with %v, which is
// the shortest round-trip form (strconv 'g', -1); no wall-clock value is
// ever written.
type paperDoc struct {
	t *testing.T
	b strings.Builder
}

func (d *paperDoc) section(title string) { fmt.Fprintf(&d.b, "== %s\n", title) }

func (d *paperDoc) line(format string, args ...any) {
	fmt.Fprintf(&d.b, format+"\n", args...)
}

func (d *paperDoc) check(err error) {
	d.t.Helper()
	if err != nil {
		d.t.Fatal(err)
	}
}

// schemeResult renders one SchemeResult minus its PlaceTime.
func (d *paperDoc) schemeResult(sr *SchemeResult) {
	d.line("  %s feasible=%v reason=%q predicted=%v measured=%v marginal=%v stages=%d",
		sr.Scheme, sr.Feasible, sr.Reason, sr.PredictedAggregate, sr.MeasuredAggregate, sr.Marginal, sr.Stages)
}

func (d *paperDoc) panel(rows []DeltaRow) {
	for _, row := range rows {
		d.line("delta=%v chains=%v agg_tmin=%v", row.Set.Delta, row.Set.ChainIdxs, row.Set.AggTmin)
		for _, sr := range row.Schemes {
			d.schemeResult(sr)
		}
	}
}

// shares renders a per-scheme share map in scheme-name order.
func (d *paperDoc) shares(label string, m map[placer.Scheme]float64) {
	keys := make([]string, 0, len(m))
	for s := range m {
		keys = append(keys, string(s))
	}
	sort.Strings(keys)
	for _, k := range keys {
		d.line("%s %s=%v", label, k, m[placer.Scheme(k)])
	}
}

// renderPaper renders every §5 artifact through the calls lemur-bench makes,
// with the runner's cells and placer fanned out over parallel workers.
func renderPaper(t *testing.T, parallel int) string {
	d := &paperDoc{t: t}
	runner := func() *Runner {
		r := NewRunner(hw.NewPaperTestbed())
		r.Parallel = parallel
		return r
	}

	for i, combo := range Figure2Combos() {
		d.section(fmt.Sprintf("Figure 2%c: chains %v", 'a'+i, combo))
		rows, err := runner().Figure2Panel(combo, paperDeltas, placer.Schemes())
		d.check(err)
		d.panel(rows)
	}
	d.section("Figure 2f: component ablations")
	rows, err := runner().Figure2f(paperDeltas)
	d.check(err)
	d.panel(rows)

	d.section("Feasibility summary")
	cells, share, solvShare, err := runner().FeasibilitySummary(paperDeltas, placer.Schemes())
	d.check(err)
	for _, c := range cells {
		d.line("chains=%v delta=%v %s feasible=%v", c.Combo, c.Delta, c.Scheme, c.Feasible)
	}
	d.shares("all", share)
	d.shares("solvable", solvShare)

	d.section("Figure 3a: one vs two servers")
	f3a, err := runner().Figure3a([]float64{0.5, 1.0, 1.5})
	d.check(err)
	for _, row := range f3a {
		d.line("delta=%v single feasible=%v reason=%q aggregate=%v two-server feasible=%v aggregate=%v",
			row.Delta, row.SingleFeasible, row.SingleReason, row.SingleAggregate,
			row.TwoServerFeasible, row.TwoServerAggregate)
	}
	d.section("Figure 3b: SmartNIC")
	f3b, err := runner().Figure3b([]float64{0.5, 1.0, 1.5})
	d.check(err)
	for _, row := range f3b {
		d.line("delta=%v server-only feasible=%v aggregate=%v with-nic feasible=%v aggregate=%v nic_used=%v",
			row.Delta, row.ServerOnlyFeasible, row.ServerOnlyAgg, row.WithNICFeasible, row.WithNICAgg, row.NICUsed)
	}
	d.section("Figure 3c: OpenFlow")
	f3c := Figure3c()
	d.line("openflow=%v server=%v speedup=%v", f3c.OFRateBps, f3c.ServerRateBps, f3c.Speedup)

	d.section("Table 3: NF placement choices")
	for _, class := range nf.Classes() {
		m := nf.Registry[class]
		d.line("%s spec=%q server=%v pisa=%v smartnic=%v openflow=%v stateful=%v replicable=%v",
			class, m.Spec, m.SupportsPlatform(hw.Server), m.SupportsPlatform(hw.PISA),
			m.SupportsPlatform(hw.SmartNIC), m.SupportsPlatform(hw.OpenFlow), m.Stateful, m.Replicable)
	}
	d.section("Table 4: profiled NF costs, 50 runs")
	t4, err := Table4(50)
	d.check(err)
	for _, row := range t4 {
		d.line("%s %s mean=%v min=%v max=%v runs=%d",
			row.NF, row.NUMA, row.Stats.Mean, row.Stats.Min, row.Stats.Max, row.Stats.Runs)
	}

	d.section("Extreme config")
	ext, err := ExtremeConfig([]placer.Scheme{placer.SchemeLemur, placer.SchemeHWPreferred,
		placer.SchemeMinBounce, placer.SchemeSWPreferred, placer.SchemeGreedy})
	d.check(err)
	for _, row := range ext {
		d.line("%s feasible=%v stages=%d nats_switch=%d nats_server=%d reason=%q",
			row.Scheme, row.Feasible, row.Stages, row.NATsOnSwitch, row.NATsOnServer, row.Reason)
	}

	d.section("Sensitivity")
	sens, base, err := runner().Sensitivity(0.5, []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10})
	d.check(err)
	d.line("baseline marginal=%v", base)
	for _, row := range sens {
		d.line("error=%v feasible=%v marginal=%v same=%v", row.ErrorFraction, row.Feasible, row.Marginal, row.SameAsBase)
	}

	d.section("Latency SLOs")
	lat, err := runner().Latency([]float64{45e-6, 35e-6, 25e-6})
	d.check(err)
	for _, row := range lat {
		d.line("dmax=%v feasible=%v aggregate=%v bounces=%d", row.DMaxSec, row.Feasible, row.Aggregate, row.Bounces)
	}

	d.section("Meta-compiler LoC")
	loc, err := runner().MetaCompilerLoC(0.5)
	d.check(err)
	d.line("p4=%d steering=%d handwritten=%d bess=%d auto_share=%v",
		loc.P4Total, loc.P4Steering, loc.Handwritten, loc.BESS, loc.AutoShare)

	// PlacerScaling reports durations and SameResult; the golden keeps the
	// verdict and renders the two placements it compares by their outcome
	// and the Optimal search's counts.
	d.section("Placer scaling, budget 2000")
	r := runner()
	sc, err := r.PlacerScaling(0.5, 2000)
	d.check(err)
	d.line("same_result=%v", sc.SameResult)
	in, _, err := r.input([]int{1, 2, 3, 4}, 0.5)
	d.check(err)
	in.BruteForceBudget = 2000
	for _, s := range []placer.Scheme{placer.SchemeLemur, placer.SchemeOptimal} {
		res, err := placer.Place(s, in)
		d.check(err)
		d.line("%s feasible=%v marginal=%v truncated=%v", s, res.Feasible, res.Marginal, res.Truncated)
		if st := res.Search; st != nil {
			d.line("  combinations=%v evaluated=%d bind_rejected=%d pruned=%d demand_pruned=%d collapsed=%d incumbent_updates=%d",
				st.Combinations, st.Evaluated, st.BindRejected, st.PrunedSubtrees, st.DemandPruned,
				st.CollapsedSubtrees, st.IncumbentUpdates)
		}
	}
	return d.b.String()
}

// firstDiff names the first line where two renderings part.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	header := ""
	for i := 0; i < len(w) && i < len(g); i++ {
		if strings.HasPrefix(w[i], "== ") {
			header = w[i]
		}
		if w[i] != g[i] {
			return fmt.Sprintf("line %d under %q:\n want %s\n  got %s", i+1, header, w[i], g[i])
		}
	}
	return fmt.Sprintf("lengths differ: want %d lines, got %d", len(w), len(g))
}

// TestPaperGolden: every §5 table and figure renders to the committed golden
// file, byte for byte, with cells and placements run serially and on four
// workers. Regenerate with -update only for an intended change of the
// paper's numbers, and read the diff.
func TestPaperGolden(t *testing.T) {
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paperGoldenPath, []byte(renderPaper(t, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(paperGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 4} {
		if got := renderPaper(t, parallel); got != string(want) {
			t.Fatalf("Parallel=%d differs from %s: %s", parallel, paperGoldenPath, firstDiff(string(want), got))
		}
	}
}
