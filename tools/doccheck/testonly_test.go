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
	allow := filepath.Join(root, "testonly.txt")
	for _, tc := range []struct {
		name, list string
		want       []string
	}{
		{"listed", "a.Unused  # oracle\na.Dead # oracle\n", nil},
		{"unlisted", "a.Dead # oracle\n", []string{"a.Unused is used only by tests"}},
		{"stale", "a.Unused # oracle\na.Dead # oracle\na.Used # now used\na.Gone # deleted\n",
			[]string{"a.Gone is gone or used outside tests", "a.Used is gone or used outside tests"}},
	} {
		if err := os.WriteFile(allow, []byte(tc.list), 0o644); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		bad, err := testOnly(root, allow, &out)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if bad != len(tc.want) || (bad > 0 && len(lines) != bad) {
			t.Fatalf("%s: %d findings, want %d:\n%s", tc.name, bad, len(tc.want), out.String())
		}
		for i, w := range tc.want {
			if !strings.Contains(lines[i], w) {
				t.Errorf("%s: finding %d = %q, want %q", tc.name, i, lines[i], w)
			}
		}
	}
	if err := os.WriteFile(allow, []byte("a.Unused\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := testOnly(root, allow, &strings.Builder{}); err == nil {
		t.Error("a line without a reason must be refused")
	}
}
