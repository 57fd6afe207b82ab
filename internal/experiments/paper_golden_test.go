package experiments

import (
	"flag"
	"fmt"
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
// and its simulations over simWorkers shards.
func renderPaper(t *testing.T, parallel, simWorkers int, sections ...string) string {
	r := NewRunner(hw.NewPaperTestbed())
	r.Parallel = parallel
	r.SimWorkers = simWorkers
	var b strings.Builder
	for _, s := range sections {
		if err := r.WritePaper(&b, s); err != nil {
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
// placements run serially, and section by section on four workers. An
// unknown section is an error. Regenerate with -update only for an intended
// change of the paper's numbers, and read the diff.
func TestPaperGolden(t *testing.T) {
	want := readGolden(t, paperGoldenPath, func() string { return renderPaper(t, 1, 1, "all") })
	for _, c := range []struct {
		parallel int
		sections []string
	}{{1, []string{"all"}}, {4, PaperSections()}} {
		if got := renderPaper(t, c.parallel, 1, c.sections...); got != want {
			t.Fatalf("Parallel=%d sections %v differ from %s: %s", c.parallel, c.sections, paperGoldenPath, firstDiff(want, got))
		}
	}
	if err := NewRunner(hw.NewPaperTestbed()).WritePaper(&strings.Builder{}, "nosuch"); err == nil {
		t.Error(`WritePaper("nosuch") succeeded, want an unknown-section error`)
	}
}

// TestBeyondGolden: the sweeps beyond the paper render to the committed
// golden file byte for byte — the "beyond" group in one call at Parallel 1
// and one simulator shard, and section by section at Parallel 4 and three
// shards. Same -update rule as TestPaperGolden.
func TestBeyondGolden(t *testing.T) {
	want := readGolden(t, beyondGoldenPath, func() string { return renderPaper(t, 1, 1, "beyond") })
	for _, c := range []struct {
		parallel, simWorkers int
		sections             []string
	}{{1, 1, []string{"beyond"}}, {4, 3, BeyondSections()}} {
		if got := renderPaper(t, c.parallel, c.simWorkers, c.sections...); got != want {
			t.Fatalf("Parallel=%d SimWorkers=%d sections %v differ from %s: %s",
				c.parallel, c.simWorkers, c.sections, beyondGoldenPath, firstDiff(want, got))
		}
	}
}

// TestEverySectionPinned: WritePaper looks a section name up among the two
// groups' sections, which share no name with each other or with "all" and
// "beyond", and each golden holds one block per section of its group — so
// with the golden tests rendering every named section, none renders
// unpinned.
func TestEverySectionPinned(t *testing.T) {
	seen := map[string]bool{"all": true, "beyond": true}
	for _, g := range []struct {
		path  string
		names []string
	}{{paperGoldenPath, PaperSections()}, {beyondGoldenPath, BeyondSections()}} {
		for _, name := range g.names {
			if seen[name] {
				t.Errorf("section name %q is used twice", name)
			}
			seen[name] = true
		}
		golden, err := os.ReadFile(g.path)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count("\n"+string(golden), "\n== "); n != len(g.names) {
			t.Errorf("%s holds %d sections, its group names %d: %v", g.path, n, len(g.names), g.names)
		}
	}
}
