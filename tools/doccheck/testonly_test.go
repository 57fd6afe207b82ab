package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree writes files (slash paths relative to dir) into dir.
func writeTree(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, body := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTestOnly runs the check on a two-module tree: a use from the root
// module's main or from bench/ counts, a use from a test does not, a
// method that satisfies fmt.Stringer counts as used, and the allow-list
// must name exactly the test-only identifiers.
func TestTestOnly(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{
		"go.mod": "module m\n\ngo 1.22\n",
		"main.go": `package main

import (
	"fmt"

	"m/internal/a"
)

func main() { a.Used(); fmt.Println(a.T{}) }
`,
		"internal/a/a.go": `package a

func Used()        {}
func Unused()      { Unused() }
func FromBench()   {}
type T struct{}
func (T) String() string { return "" }
const Dead = 1
`,
		"internal/a/a_test.go": `package a

import "testing"

func TestA(t *testing.T) { Unused(); _ = Dead }
`,
		"bench/go.mod": "module m/bench\n\ngo 1.22\n\nrequire m v0.0.0\n\nreplace m => ../\n",
		"bench/main.go": `package main

import "m/internal/a"

func main() { a.FromBench() }
`,
	})
	l := mustLoad(t, root)
	allow := filepath.Join(root, "testonly.txt")
	checkAllowLists(t, l, allow, []allowCase{
		{"listed", "a.Unused  # oracle\na.Dead # oracle\n", nil},
		{"unlisted", "a.Dead # oracle\n", []string{"a.Unused is used by no non-test file"}},
		{"stale", "a.Unused # oracle\na.Dead # oracle\na.Used # now used\na.Gone # deleted\n",
			[]string{"a.Gone is gone or no longer a finding", "a.Used is gone or no longer a finding"}},
	})
	if err := os.WriteFile(allow, []byte("a.Unused\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := l.testOnly(allow, &strings.Builder{}); err == nil {
		t.Error("a line without a reason must be refused")
	}
}

// TestTestOnlyExports runs the two name rules beyond "no non-test use" on a
// planted tree: an exported func that only its own package calls fails, and
// so does an unexported func that only a test calls; an exported type named
// in the result of an exported func main calls passes, as does an
// unexported method reached only through an interface literal in a type
// assertion; and an allow-list line silences an exported name its package
// alone uses, and fails once the name is gone.
func TestTestOnlyExports(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{
		"go.mod": "module m\n\ngo 1.22\n",
		"main.go": `package main

import "m/internal/e"

func main() { _ = e.Make(); e.Run() }
`,
		"internal/e/e.go": `package e

type Made struct{}

func Make() *Made { _ = Inside() + Listed(); return &Made{} }

func Inside() int { return 1 }
func Listed() int { return 2 }
func testHelper() int { return 3 }

type syncer struct{}

func (syncer) sync() {}

func Run() { apply(syncer{}) }

func apply(x any) {
	if s, ok := x.(interface{ sync() }); ok {
		s.sync()
	}
}
`,
		"internal/e/e_test.go": `package e

import "testing"

func TestE(t *testing.T) { _ = testHelper() }
`,
	})
	inside := "e.Inside is used only inside its own package"
	helper := "e.testHelper is used by no non-test file"
	checkAllowLists(t, mustLoad(t, root), filepath.Join(root, "testonly.txt"), []allowCase{
		{"unlisted", "", []string{inside, "e.Listed is used only inside its own package", helper}},
		{"listed", "e.Listed  # kept exported\n", []string{inside, helper}},
		{"stale", "e.Listed # kept exported\ne.Gone # deleted\n",
			[]string{inside, helper, "e.Gone is gone or no longer a finding"}},
	})
}

// TestTestOnlyFields runs the field half of the check on a planted tree:
// a field that only writes reach fails, whatever the write (=, op=, ++, a
// composite-literal key, an atomic add on its address), and so does one
// only a test reads; a field some non-test file reads passes, as do a
// tagged field, an embedded one and the fields of a struct compared with
// ==; and an allow-list line naming a field that is read or gone fails.
func TestTestOnlyFields(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{
		"go.mod": "module m\n\ngo 1.22\n",
		"main.go": `package main

import "m/internal/f"

func main() { f.Touch(&f.W{}, f.Key{}) }
`,
		"internal/f/f.go": `package f

import (
	"sync"
	"sync/atomic"
)

type W struct {
	sync.Mutex
	Assigned int
	Added    int
	Incr     int
	Keyed    int
	Atomic   uint64
	Read     int
	Tagged   int ` + "`json:\"tagged\"`" + `
	TestRead int
	Listed   int
}

type Key struct{ A, B int }

func Touch(w *W, k Key) int {
	w.Assigned = 1
	w.Added += 2
	w.Incr++
	atomic.AddUint64(&w.Atomic, 1)
	w.Listed = 3
	if k == (Key{}) {
		return (&W{Keyed: 1}).Read
	}
	return w.Read
}
`,
		"internal/f/f_test.go": `package f

import "testing"

func TestF(t *testing.T) { _ = (&W{}).TestRead }
`,
	})
	writes := []string{"f.W.Added is read by no non-test file", "f.W.Assigned is read", "f.W.Atomic is read",
		"f.W.Incr is read", "f.W.Keyed is read"}
	checkAllowLists(t, mustLoad(t, root), filepath.Join(root, "testonly.txt"), []allowCase{
		{"listed", "f.W.Listed  # modelled state\n", append(writes, "f.W.TestRead is read")},
		{"unlisted", "", append(writes, "f.W.Listed is read", "f.W.TestRead is read")},
		{"stale", "f.W.Listed # modelled state\nf.W.Read # now read\nf.W.Gone # deleted\n",
			append(writes, "f.W.TestRead is read", "f.W.Gone is gone or no longer a finding",
				"f.W.Read is gone or no longer a finding")},
	})
}

// allowCase is one allow-list and the findings, in order, that the check
// must print with it: each a substring of its line.
type allowCase struct {
	name, list string
	want       []string
}

// mustLoad loads the tree at root or fails the test.
func mustLoad(t *testing.T, root string) *loader {
	t.Helper()
	l, err := load(root)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// checkAllowLists runs the check on the loaded tree once per case, with the
// case's list written to allow.
func checkAllowLists(t *testing.T, l *loader, allow string, cases []allowCase) {
	t.Helper()
	for _, tc := range cases {
		if err := os.WriteFile(allow, []byte(tc.list), 0o644); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		bad, err := l.testOnly(allow, &out)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkFindings(t, tc.name, bad, out.String(), tc.want)
	}
}
