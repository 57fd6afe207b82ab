package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"lemur/internal/hw"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/paper.golden")

const paperGoldenPath = "testdata/paper.golden"

// renderPaper renders the sections WritePaper names in one call each (or
// "all" in one call), with the runner's cells and placer fanned out over
// parallel workers.
func renderPaper(t *testing.T, parallel int, sections ...string) string {
	r := NewRunner(hw.NewPaperTestbed())
	r.Parallel = parallel
	var b strings.Builder
	for _, s := range sections {
		if err := r.WritePaper(&b, s); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
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
// placements run serially, and section by section on four workers. An
// unknown section is an error. Regenerate with -update only for an intended
// change of the paper's numbers, and read the diff.
func TestPaperGolden(t *testing.T) {
	if *updateGolden {
		if err := os.WriteFile(paperGoldenPath, []byte(renderPaper(t, 1, "all")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(paperGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		parallel int
		sections []string
	}{{1, []string{"all"}}, {4, PaperSections()}} {
		if got := renderPaper(t, c.parallel, c.sections...); got != string(want) {
			t.Fatalf("Parallel=%d sections %v differ from %s: %s", c.parallel, c.sections, paperGoldenPath, firstDiff(string(want), got))
		}
	}
	if err := NewRunner(hw.NewPaperTestbed()).WritePaper(&strings.Builder{}, "nosuch"); err == nil {
		t.Error(`WritePaper("nosuch") succeeded, want an unknown-section error`)
	}
}
