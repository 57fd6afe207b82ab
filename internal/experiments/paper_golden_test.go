package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"lemur/internal/hw"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/paper.golden and testdata/beyond.golden")

const (
	paperGoldenPath  = "testdata/paper.golden"
	beyondGoldenPath = "testdata/beyond.golden"
)

// renderPaper renders the named sections (or groups) in one WritePaper call
// each, with the runner's cells and placer fanned out over parallel workers
// and its simulations over simWorkers shards, wall-clock lines to timing.
func renderPaper(t *testing.T, parallel, simWorkers int, timing io.Writer, sections ...string) string {
	r := NewRunner(hw.NewPaperTestbed())
	r.Parallel = parallel
	r.SimWorkers = simWorkers
	var b strings.Builder
	for _, s := range sections {
		if err := r.WritePaper(&b, timing, s); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// readGolden returns a golden file, rewriting it first from render under
// -update.
func readGolden(t *testing.T, path string, render func() string) string {
	if *updateGolden {
		if err := os.WriteFile(path, []byte(render()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(want)
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
// file, byte for byte — the whole document in one call with cells and
// placements run serially, and section by section on four workers — and
// writes no wall-clock line. An unknown section is an error. Regenerate with
// -update only for an intended change of the paper's numbers, and read the
// diff.
func TestPaperGolden(t *testing.T) {
	want := readGolden(t, paperGoldenPath, func() string { return renderPaper(t, 1, 1, io.Discard, "all") })
	for _, c := range []struct {
		parallel int
		sections []string
	}{{1, []string{"all"}}, {4, PaperSections()}} {
		var timing bytes.Buffer
		if got := renderPaper(t, c.parallel, 1, &timing, c.sections...); got != want {
			t.Fatalf("Parallel=%d sections %v differ from %s: %s", c.parallel, c.sections, paperGoldenPath, firstDiff(want, got))
		}
		if timing.Len() != 0 {
			t.Fatalf("Parallel=%d: §5 wrote wall-clock lines:\n%s", c.parallel, timing.String())
		}
	}
	if err := NewRunner(hw.NewPaperTestbed()).WritePaper(&strings.Builder{}, io.Discard, "nosuch"); err == nil {
		t.Error(`WritePaper("nosuch") succeeded, want an unknown-section error`)
	}
}

// TestBeyondGolden: the sweeps beyond the paper that the "beyond" group
// renders give the committed golden file byte for byte — the group in one
// call at Parallel 1 and one simulator shard, and section by section at
// Parallel 4 and three shards — while their wall-clock measurements go to
// the timing writer: one line per churn step, reconcile scenario and
// place-scale cell, and nothing else. Same -update rule as TestPaperGolden.
func TestBeyondGolden(t *testing.T) {
	group := BeyondSections()[:6]
	want := readGolden(t, beyondGoldenPath, func() string { return renderPaper(t, 1, 1, io.Discard, "beyond") })
	wantTiming := map[string]int{
		"churn step=":  len(DefaultChurnAdmits(12)),
		"reconcile ":   len(ReconcileScenarios()),
		"place-scale ": len(DefaultPlaceScalePoints()),
	}
	for _, c := range []struct {
		parallel, simWorkers int
		sections             []string
	}{{1, 1, []string{"beyond"}}, {4, 3, group}} {
		var timing bytes.Buffer
		if got := renderPaper(t, c.parallel, c.simWorkers, &timing, c.sections...); got != want {
			t.Fatalf("Parallel=%d SimWorkers=%d sections %v differ from %s: %s",
				c.parallel, c.simWorkers, c.sections, beyondGoldenPath, firstDiff(want, got))
		}
		lines := strings.Split(strings.TrimSuffix(timing.String(), "\n"), "\n")
		n := 0
		for prefix, count := range wantTiming {
			got := 0
			for _, l := range lines {
				if strings.HasPrefix(l, prefix) {
					got++
				}
			}
			if got != count {
				t.Errorf("Parallel=%d: %d timing lines start %q, want %d", c.parallel, got, prefix, count)
			}
			n += got
		}
		if n != len(lines) {
			t.Errorf("Parallel=%d: timing holds %d lines, want %d:\n%s", c.parallel, len(lines), n, timing.String())
		}
	}
}
