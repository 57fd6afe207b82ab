package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of compare, one per (end-to-end metric, workload).
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// summary is one side's runs of one metric on one workload.
type summary struct {
	median     float64
	q1, q3     float64
	spreadOver float64 // (q3 - q1) / median
}

func summarize(v []float64) summary {
	s := summary{median: median(v)}
	s.q1, s.q3 = quartiles(v)
	if s.median != 0 {
		s.spreadOver = (s.q3 - s.q1) / s.median
	}
	return s
}

// verdictOf compares B with A for a metric. worsening is B's median's
// change against A's in the metric's bad direction, as a share of A's
// median. The rule is the one the benchmark's bound is for: worse means
// worse by more than the bound; when either side's own runs spread wider
// than the bound, the comparison cannot tell and says so; better means
// better by more than the runs' spread.
func verdictOf(d metricDef, a, b summary) (verdict string, worsening float64) {
	if a.median != 0 {
		worsening = (b.median - a.median) / a.median
	}
	if d.Better == "higher" {
		worsening = -worsening
	}
	spread := a.spreadOver
	if b.spreadOver > spread {
		spread = b.spreadOver
	}
	switch {
	case spread > d.Bound:
		return verdictUnresolved, worsening
	case worsening > d.Bound:
		return verdictWorse, worsening
	case worsening < -spread && worsening < 0:
		return verdictBetter, worsening
	}
	return verdictSame, worsening
}

func loadSet(path string) (*setFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set setFile
	if err := json.Unmarshal(raw, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// valuesOf collects a metric's values over the untraced runs of a workload,
// end-to-end or host-time, and the failed and attempted operation counts of
// those runs.
func valuesOf(set *setFile, workload, metric string) (v []float64, failed, attempted int) {
	for _, r := range set.Runs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		failed += r.Failed
		attempted += r.Attempted
		if m, ok := r.Metrics[metric]; ok {
			v = append(v, m.Value)
		} else if m, ok := r.Host[metric]; ok {
			v = append(v, m.Value)
		}
	}
	return v, failed, attempted
}

// compareSets writes one row per (workload, end-to-end or host-time metric)
// and returns how many rows are worse.
func compareSets(a, b *setFile, out io.Writer) int {
	worse := 0
	fmt.Fprintf(out, "A: commit %s, seed %d, %d runs    B: commit %s, seed %d, %d runs\n",
		a.Meta.Commit, a.Meta.Seed, len(a.Runs), b.Meta.Commit, b.Meta.Seed, len(b.Runs))
	fmt.Fprintf(out, "%-19s %-20s %13s %25s %13s %25s %6s %8s  %s\n",
		"workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "bound", "change", "verdict")
	for _, w := range workloadNames {
		for _, d := range append(append([]metricDef(nil), endToEnd...), hostTime...) {
			va, _, _ := valuesOf(a, w, d.Name)
			vb, _, _ := valuesOf(b, w, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sa, sb := summarize(va), summarize(vb)
			verdict, worsening := verdictOf(d, sa, sb)
			if verdict == verdictWorse {
				worse++
			}
			fmt.Fprintf(out, "%-19s %-20s %13.6g %12.6g..%-11.6g %13.6g %12.6g..%-11.6g %5.1f%% %+7.1f%%  %s\n",
				w, d.Name, sa.median, sa.q1, sa.q3, sb.median, sb.q1, sb.q3, 100*d.Bound, 100*worsening, verdict)
		}
		// Any rise of the failed share is a regression, whatever the bound.
		_, fa, na := valuesOf(a, w, "setup_s")
		_, fb, nb := valuesOf(b, w, "setup_s")
		if na == 0 || nb == 0 {
			continue
		}
		verdict := verdictSame
		if ra, rb := float64(fa)/float64(na), float64(fb)/float64(nb); rb > ra {
			verdict = verdictWorse
			worse++
		} else if rb < ra {
			verdict = verdictBetter
		}
		fmt.Fprintf(out, "%-19s %-20s %13s %25s %13s %25s %6s %8s  %s\n", w, "ops_failed_ratio",
			fmt.Sprintf("%d/%d", fa, na), "", fmt.Sprintf("%d/%d", fb, nb), "", "0", "", verdict)
	}
	fmt.Fprintf(out, "%d worse\n", worse)
	return worse
}

// compareMain is `bench compare A.json B.json`; it returns the exit code.
func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	a, err := loadSet(args[0])
	if err == nil {
		var b *setFile
		if b, err = loadSet(args[1]); err == nil {
			if compareSets(a, b, out) > 0 {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 2
}
