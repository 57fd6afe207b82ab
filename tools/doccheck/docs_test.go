package main

import (
	"strings"
	"testing"
)

// The clean fixture's README, one kind of reference a line: package
// symbols (module, standard library through a module package of the same
// name, a metric key, a skipped prefix), flags on cmd/ lines, inline flags
// and test names.
const (
	readmeSymbols = "Symbols: `placer.Place`, `placer.Input.Chains`, `placer.Input.total`, `lemur.Version`, " +
		"`runtime.MemStats`, `flag.FlagSet.Parse`, `placer.Optimal.place_ms`, `cfg.Seed`."
	readmeCmds  = "Run `go run ./cmd/tool -spec x.spec -verify 10 && go run ./cmd/other -paper all`."
	readmeFlags = "Flags: `-json`, `-paper`."
	readmeTests = "Tests: `TestPlace`, `BenchmarkPlace`, `FuzzPlace`."
)

// cleanTree is a module that passes the whole gate: the six audited
// packages, documented; two cmd/ tools, one with a subcommand's FlagSet;
// tests in and outside their package; and the five docs, CHANGES.md and
// BENCHMARK.json. Its experiments package holds a renamed sweep: an
// unexported churnSweep and a TestChurnSweepX, which a substring match on
// ChurnSweep would take for an exported experiments.ChurnSweep.
func cleanTree() map[string]string {
	tree := map[string]string{
		"go.mod": "module m\n\ngo 1.22\n",
		"lemur.go": `// Package lemur is the fixture's root package.
package lemur

// Version is the fixture's version.
const Version = 1
`,
		"internal/placer/placer.go": `// Package placer is a fixture.
package placer

// Input is what Place reads.
type Input struct{ Chains int }

func (in Input) total() int { return in.Chains }

// Place returns the chain count.
func Place(in Input) int { return in.total() }
`,
		"internal/placer/placer_test.go": `package placer

import "testing"

func TestPlace(t *testing.T) { _ = Place(Input{}) }

func FuzzPlace(f *testing.F) {}
`,
		"internal/placer/external_test.go": `package placer_test

import "testing"

func BenchmarkPlace(b *testing.B) {}
`,
		"internal/experiments/experiments.go": `// Package experiments is a fixture.
package experiments

// Run runs the churn sweep.
func Run() { churnSweep() }

func churnSweep() {}
`,
		"internal/experiments/churn_test.go": `package experiments

import "testing"

func TestChurnSweepX(t *testing.T) { churnSweep() }
`,
		"cmd/tool/main.go": `package main

import (
	"flag"
	"runtime"

	lemur "m"
	"m/internal/experiments"
	"m/internal/placer"
)

func main() {
	spec := flag.String("spec", "", "chain spec")
	var n int
	flag.IntVar(&n, "verify", 0, "packets to verify")
	status := flag.NewFlagSet("status", flag.ExitOnError)
	asJSON := status.Bool("json", false, "print JSON")
	flag.Parse()
	_ = status.Parse(flag.Args())
	experiments.Run()
	runtime.GC()
	println(*spec, n, *asJSON, lemur.Version, placer.Place(placer.Input{Chains: 1}))
}
`,
		"cmd/other/main.go": `package main

import "flag"

func main() {
	flag.String("paper", "all", "section")
	flag.Parse()
}
`,
		"tools/doccheck/testonly.txt": "# no test-only names\n",
		"BENCHMARK.json":              `{"end_to_end": [{"name": "setup_s"}], "per_layer": [{"name": "placer.Optimal.place_ms"}]}`,
		"CHANGES.md":                  changes(0),
		"README.md":                   readme(""),
	}
	for _, pkg := range []string{"metacompiler", "runtime", "daemon"} {
		tree["internal/"+pkg+"/doc.go"] = "// Package " + pkg + " is a fixture.\npackage " + pkg + "\n"
	}
	for _, doc := range docFiles[1:] {
		tree[doc] = "# " + doc + "\n"
	}
	return tree
}

// readme is the clean README without the lines that contain drop, plus
// extra.
func readme(extra string, drop ...string) string {
	lines := []string{"# m"}
	for _, l := range []string{readmeSymbols, readmeCmds, readmeFlags, readmeTests} {
		keep := true
		for _, d := range drop {
			keep = keep && !strings.Contains(l, d)
		}
		if keep {
			lines = append(lines, l)
		}
	}
	return strings.Join(append(lines, extra), "\n") + "\n"
}

// changes is a CHANGES.md whose entry 23 is size bytes long (none if 0),
// after an entry 21 over the limit, which predates the rule.
func changes(size int) string {
	out := "# Changes\n\n- PR 21 " + strings.Repeat("x", 5000) + "\n- PR 22 short\n"
	if size > 0 {
		out += "- PR 23 " + strings.Repeat("y", size-len("- PR 23 ")) + "\n"
	}
	return out
}

// TestDocs runs the docs check on planted docs over one loaded tree: the
// clean tree passes (the whole gate too), and each planted defect fails
// with its finding, among them docs naming experiments.ChurnSweep where the
// code has only churnSweep and TestChurnSweepX, which a substring match
// passes.
func TestDocs(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, cleanTree())
	l := mustLoad(t, root)
	var out strings.Builder
	if bad, err := check(root, &out); err != nil || bad != 0 {
		t.Fatalf("clean tree: %d findings, err %v:\n%s", bad, err, out.String())
	}
	for _, tc := range []struct {
		name, readme string
		changes      int
		want         []string
	}{
		{"clean", readme(""), 4096, nil},
		{"renamed symbol", readme("See `experiments.ChurnSweep`."), 0,
			[]string{"README.md:6: `experiments.ChurnSweep`: no package-level ChurnSweep"}},
		{"unknown flag on a cmd line", readme("`go run ./cmd/tool -spec x -paper all`"), 0,
			[]string{"README.md:6: -paper is no flag of cmd/tool"}},
		{"unknown inline flag", readme("The `-gone` flag, and `-status`, a FlagSet's name."), 0,
			[]string{"README.md:6: `-gone` is a flag of no cmd/ tool", "README.md:6: `-status` is a flag of no cmd/ tool"}},
		{"deleted test", readme("`TestGone` holds it."), 0,
			[]string{"README.md:6: `TestGone` is no test"}},
		{"bad selector", readme("`placer.Input.NoSuchField`"), 0,
			[]string{"`placer.Input.NoSuchField`: Input (m/internal/placer.Input) has no field or method NoSuchField"}},
		{"not a metric", readme("`placer.Optimal.place_us`"), 0,
			[]string{"`placer.Optimal.place_us`: no package-level Optimal"}},
		{"misspelled standard-library names", readme("`runtime.MemStat` and `flag.FlagSett`"), 0,
			[]string{"`runtime.MemStat`: no package-level MemStat", "`flag.FlagSett`: no package-level FlagSett"}},
		{"long CHANGES entry", readme(""), 4097,
			[]string{"CHANGES.md:5: the entry for PR 23 is 4097 bytes, over 4096"}},
		{"no symbol", readme("", "Symbols"), 0, []string{"no package symbol is referenced"}},
		{"no flag on a cmd line", readme("", "cmd/"), 0, []string{"no flag on a cmd/<tool> line is referenced"}},
		{"no inline flag", readme("", "Flags"), 0, []string{"no inline `-flag` is referenced"}},
		{"no test name", readme("", "Tests"), 0, []string{"no test name is referenced"}},
	} {
		writeTree(t, root, map[string]string{"README.md": tc.readme, "CHANGES.md": changes(tc.changes)})
		var out strings.Builder
		bad, err := l.docs(root, &out)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkFindings(t, tc.name, bad, out.String(), tc.want)
	}
}

// TestGodocCoverage plants undocumented names in an audited package: an
// exported func, type and var each fail; a method of an unexported type, a
// const block under one comment and an exported func in a _test.go file do
// not.
func TestGodocCoverage(t *testing.T) {
	root := t.TempDir()
	tree := cleanTree()
	tree["internal/placer/godoc.go"] = `package placer

func Undocumented() {}

type Bare struct{}

var Loose = 1

type hidden struct{}

func (hidden) Method() {}

func (*hidden) Pointer() {}

// Limits bound a placement.
const (
	MaxChains = 8
	MaxStages = 12
)

// Documented says what it is.
func Documented() {}
`
	tree["internal/placer/godoc_test.go"] = "package placer\n\nfunc HelperFromTest() {}\n"
	writeTree(t, root, tree)
	l := mustLoad(t, root)
	var out strings.Builder
	bad, err := l.godoc(&out)
	if err != nil {
		t.Fatal(err)
	}
	checkFindings(t, "godoc", bad, out.String(), []string{
		"godoc.go:3: func Undocumented has no doc comment",
		"godoc.go:5: type Bare has no doc comment",
		"godoc.go:7: const/var Loose has no doc comment",
	})
	delete(l.files, "m/internal/daemon")
	if _, err := l.godoc(&out); err == nil {
		t.Error("a missing audited package must be an error")
	}
}

// checkFindings fails unless out holds exactly one line per want, in
// order, each containing its want.
func checkFindings(t *testing.T, name string, bad int, out string, want []string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if bad != len(want) || (bad > 0 && len(lines) != bad) {
		t.Fatalf("%s: %d findings, want %d:\n%s", name, bad, len(want), out)
	}
	for i, w := range want {
		if !strings.Contains(lines[i], w) {
			t.Errorf("%s: finding %d = %q, want %q", name, i, lines[i], w)
		}
	}
}
