package experiments

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"

	"lemur/internal/hw"
	"lemur/internal/nf"
	"lemur/internal/placer"
)

// paperDeltas is the δ grid every δ sweep of the paper document runs over.
// The paper sweeps 0.5 to 4.0; from 2.5 up every scheme is infeasible on the
// paper rack's 15 worker cores, so the document stops at 2.0.
var paperDeltas = []float64{0.5, 1.0, 1.5, 2.0}

// paperSection is one `== ` block of the paper document.
type paperSection struct {
	name, title string
	write       func(r *Runner, d *paperDoc) error
}

// paperDoc accumulates one section. Floats print with %v, the shortest
// round-trip form (strconv 'g', -1).
type paperDoc struct{ bytes.Buffer }

func (d *paperDoc) line(format string, args ...any) { fmt.Fprintf(d, format+"\n", args...) }

// panel renders Figure 2 rows, each SchemeResult minus its PlaceTime.
func (d *paperDoc) panel(rows []DeltaRow) {
	for _, row := range rows {
		d.line("delta=%v chains=%v agg_tmin=%v", row.Set.Delta, row.Set.ChainIdxs, row.Set.AggTmin)
		for _, sr := range row.Schemes {
			d.line("  %s feasible=%v reason=%q predicted=%v measured=%v marginal=%v stages=%d",
				sr.Scheme, sr.Feasible, sr.Reason, sr.PredictedAggregate, sr.MeasuredAggregate, sr.Marginal, sr.Stages)
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

// paperSections lists the document's sections in print order.
func paperSections() []paperSection {
	var secs []paperSection
	for i, combo := range Figure2Combos() {
		secs = append(secs, paperSection{fmt.Sprintf("2%c", 'a'+i), fmt.Sprintf("Figure 2%c: chains %v", 'a'+i, combo),
			func(r *Runner, d *paperDoc) error {
				rows, err := r.Figure2Panel(combo, paperDeltas, placer.Schemes())
				if err != nil {
					return err
				}
				d.panel(rows)
				return nil
			}})
	}
	return append(secs, []paperSection{
		{"2f", "Figure 2f: component ablations", func(r *Runner, d *paperDoc) error {
			rows, err := r.Figure2f(paperDeltas)
			if err != nil {
				return err
			}
			d.panel(rows)
			return nil
		}},
		{"feasibility", "Feasibility summary", func(r *Runner, d *paperDoc) error {
			cells, share, solvShare, err := r.FeasibilitySummary(paperDeltas, placer.Schemes())
			if err != nil {
				return err
			}
			for _, c := range cells {
				d.line("chains=%v delta=%v %s feasible=%v", c.Combo, c.Delta, c.Scheme, c.Feasible)
			}
			d.shares("all", share)
			d.shares("solvable", solvShare)
			return nil
		}},
		{"3a", "Figure 3a: one vs two servers", func(r *Runner, d *paperDoc) error {
			rows, err := r.Figure3a([]float64{0.5, 1.0, 1.5})
			if err != nil {
				return err
			}
			for _, row := range rows {
				d.line("delta=%v single feasible=%v reason=%q aggregate=%v two-server feasible=%v aggregate=%v",
					row.Delta, row.SingleFeasible, row.SingleReason, row.SingleAggregate,
					row.TwoServerFeasible, row.TwoServerAggregate)
			}
			return nil
		}},
		{"3b", "Figure 3b: SmartNIC", func(r *Runner, d *paperDoc) error {
			rows, err := r.Figure3b([]float64{0.5, 1.0, 1.5})
			if err != nil {
				return err
			}
			for _, row := range rows {
				d.line("delta=%v server-only feasible=%v aggregate=%v with-nic feasible=%v aggregate=%v nic_used=%v",
					row.Delta, row.ServerOnlyFeasible, row.ServerOnlyAgg, row.WithNICFeasible, row.WithNICAgg, row.NICUsed)
			}
			return nil
		}},
		{"3c", "Figure 3c: OpenFlow", func(_ *Runner, d *paperDoc) error {
			f := Figure3c()
			d.line("openflow=%v server=%v speedup=%v", f.OFRateBps, f.ServerRateBps, f.Speedup)
			return nil
		}},
		{"table3", "Table 3: NF placement choices", func(_ *Runner, d *paperDoc) error {
			for _, class := range nf.Classes() {
				m := nf.Registry[class]
				d.line("%s spec=%q server=%v pisa=%v smartnic=%v openflow=%v stateful=%v replicable=%v",
					class, m.Spec, m.SupportsPlatform(hw.Server), m.SupportsPlatform(hw.PISA),
					m.SupportsPlatform(hw.SmartNIC), m.SupportsPlatform(hw.OpenFlow), m.Stateful, m.Replicable)
			}
			return nil
		}},
		{"table4", "Table 4: profiled NF costs, 50 runs", func(_ *Runner, d *paperDoc) error {
			rows, err := Table4(50)
			if err != nil {
				return err
			}
			for _, row := range rows {
				d.line("%s %s mean=%v min=%v max=%v runs=%d",
					row.NF, row.NUMA, row.Stats.Mean, row.Stats.Min, row.Stats.Max, row.Stats.Runs)
			}
			return nil
		}},
		{"extreme", "Extreme config", func(_ *Runner, d *paperDoc) error {
			rows, err := ExtremeConfig([]placer.Scheme{placer.SchemeLemur, placer.SchemeHWPreferred,
				placer.SchemeMinBounce, placer.SchemeSWPreferred, placer.SchemeGreedy})
			if err != nil {
				return err
			}
			for _, row := range rows {
				d.line("%s feasible=%v stages=%d nats_switch=%d nats_server=%d reason=%q",
					row.Scheme, row.Feasible, row.Stages, row.NATsOnSwitch, row.NATsOnServer, row.Reason)
			}
			return nil
		}},
		{"sensitivity", "Sensitivity", func(r *Runner, d *paperDoc) error {
			rows, base, err := r.Sensitivity(0.5, []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10})
			if err != nil {
				return err
			}
			d.line("baseline marginal=%v", base)
			for _, row := range rows {
				d.line("error=%v feasible=%v marginal=%v same=%v", row.ErrorFraction, row.Feasible, row.Marginal, row.SameAsBase)
			}
			return nil
		}},
		{"latency", "Latency SLOs", func(r *Runner, d *paperDoc) error {
			rows, err := r.Latency([]float64{45e-6, 35e-6, 25e-6})
			if err != nil {
				return err
			}
			for _, row := range rows {
				d.line("dmax=%v feasible=%v aggregate=%v bounces=%d", row.DMaxSec, row.Feasible, row.Aggregate, row.Bounces)
			}
			return nil
		}},
		{"loc", "Meta-compiler LoC", func(r *Runner, d *paperDoc) error {
			loc, err := r.MetaCompilerLoC(0.5)
			if err != nil {
				return err
			}
			d.line("p4=%d steering=%d handwritten=%d bess=%d auto_share=%v",
				loc.P4Total, loc.P4Steering, loc.Handwritten, loc.BESS, loc.AutoShare)
			return nil
		}},
		// The two placements render by outcome and the Optimal search's
		// counts, never by their solve times.
		{"scaling", "Placer scaling, budget 2000", func(r *Runner, d *paperDoc) error {
			sc, err := r.PlacerScaling(0.5, 2000)
			if err != nil {
				return err
			}
			d.line("same_result=%v", sc.SameResult)
			for _, res := range []*placer.Result{sc.Heuristic, sc.BruteForce} {
				d.line("%s feasible=%v marginal=%v truncated=%v", res.Scheme, res.Feasible, res.Marginal, res.Truncated)
				if st := res.Search; st != nil {
					d.line("  combinations=%v evaluated=%d bind_rejected=%d pruned=%d demand_pruned=%d collapsed=%d incumbent_updates=%d",
						st.Combinations, st.Evaluated, st.BindRejected, st.PrunedSubtrees, st.DemandPruned,
						st.CollapsedSubtrees, st.IncumbentUpdates)
				}
			}
			return nil
		}},
	}...)
}

// PaperSections names the sections of the paper's §5 that WritePaper
// renders for "all", in print order.
func PaperSections() []string { return sectionNames(paperSections()) }

// BeyondSections names WritePaper's sweeps beyond the paper that it renders
// for "beyond", in print order.
func BeyondSections() []string { return sectionNames(beyondSections()) }

func sectionNames(secs []paperSection) []string {
	var names []string
	for _, s := range secs {
		names = append(names, s.name)
	}
	return names
}

// WritePaper renders the evaluation as deterministic text: "all" renders the
// paper's §5 — Figures 2 and 3, Tables 3 and 4, the §5.2 and §5.3 studies —
// "beyond" the sweeps beyond the paper, and any other name the one section
// of that name, so every section is part of a group. Each section renders
// whole before it is written, so a failing section writes nothing. Sections
// that place chains run with r's settings, on r's rack except Figure 3a and
// 3b and the failover and place-scale sweeps, which fix their racks; Figure
// 3c, Tables 3 and 4, the extreme config and the reconcile sweep take
// nothing from r but its Parallel. What w gets is the same at any r.Parallel
// and r.SimWorkers; nothing in it reads a clock.
func (r *Runner) WritePaper(w io.Writer, section string) error {
	var secs []paperSection
	switch section {
	case "all":
		secs = paperSections()
	case "beyond":
		secs = beyondSections()
	default:
		for _, s := range append(paperSections(), beyondSections()...) {
			if s.name == section {
				secs = []paperSection{s}
			}
		}
		if secs == nil {
			return fmt.Errorf("unknown paper section %q (want all, beyond or one of %s %s)",
				section, strings.Join(PaperSections(), " "), strings.Join(BeyondSections(), " "))
		}
	}
	for _, s := range secs {
		var d paperDoc
		d.line("== %s", s.title)
		if err := s.write(r, &d); err != nil {
			return fmt.Errorf("paper section %s: %w", s.name, err)
		}
		if _, err := w.Write(d.Bytes()); err != nil {
			return err
		}
	}
	return nil
}
