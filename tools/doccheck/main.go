// Command doccheck is the repository's static gate. Run from the module
// root with no arguments, it loads and type-checks every package of the
// module and of bench/ once (see load) and fails (exit 1) on a finding of
// any of three checks:
//
//   - godoc coverage: an exported func, method, type, or the first name of
//     an exported const/var spec, in one of the audited packages, without a
//     doc comment. Grouped specs inherit the block comment; methods of
//     unexported types and struct fields are exempt. Exported identifiers
//     must say what they are — for quantities, in which units; for
//     anything that computes, whether the result is deterministic;
//   - test-only names: a package-level identifier under internal/ or in the
//     root package, exported or not, that no non-test file uses, an
//     exported one under internal/ that no non-test file of another package
//     uses, or a struct field under internal/ that no non-test file reads,
//     unless tools/doccheck/testonly.txt lists it; and a line there that
//     names something gone or no longer a finding (see testonly.go);
//   - docs: a backticked package symbol, flag or test name in README.md,
//     ARCHITECTURE.md, OPERATIONS.md, EXPERIMENTS.md or DESIGN.md that
//     names nothing in the tree, a kind of reference the docs no longer
//     hold, and an over-long CHANGES.md entry (see docs.go).
//
// Usage:
//
//	go run ./tools/doccheck
//	go run ./tools/doccheck -guards <manifest> <race.json> <cover.json>
//
// With -guards it instead reads the `go test -json` streams of ci.sh's two
// whole-suite passes (one under -race, one with -coverprofile) and fails
// unless every test tools/doccheck/guards.txt names passed in its pass,
// printing the output of every test that failed (see guards.go).
package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"os"
	"path/filepath"
)

// audited are the packages, as directories below the module root, whose
// exported names must each carry a doc comment.
var audited = []string{".", "internal/placer", "internal/metacompiler", "internal/runtime", "internal/daemon", "internal/experiments"}

func main() {
	switch {
	case len(os.Args) == 1:
		bad, err := check(".", os.Stdout)
		exit(bad, err, "finding(s)")
	case len(os.Args) == 5 && os.Args[1] == "-guards":
		bad, err := guards(os.Args[2], os.Args[3], os.Args[4], os.Stdout)
		exit(bad, err, "guard finding(s)")
	default:
		fmt.Fprintln(os.Stderr, "usage: doccheck | doccheck -guards <manifest> <race.json> <cover.json>")
		os.Exit(2)
	}
}

// exit ends a mode that returned bad findings or err: status 2 on an error,
// 1 on findings (what names them), and it returns when there are neither.
func exit(bad int, err error, what string) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "doccheck:", err)
		os.Exit(2)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d %s\n", bad, what)
		os.Exit(1)
	}
}

// check runs the three checks of the static gate on one load of the module
// in root, writes their findings to w and returns how many there are.
func check(root string, w io.Writer) (int, error) {
	l, err := load(root)
	if err != nil {
		return 0, err
	}
	bad, err := l.godoc(w)
	if err != nil {
		return 0, err
	}
	n, err := l.testOnly(filepath.Join(root, "tools", "doccheck", "testonly.txt"), w)
	if err != nil {
		return 0, err
	}
	bad += n
	n, err = l.docs(root, w)
	return bad + n, err
}

// godoc is the godoc-coverage check: checkFile over the non-test files of
// each audited package, which must have been loaded.
func (l *loader) godoc(w io.Writer) (int, error) {
	bad := 0
	for _, dir := range audited {
		path := l.module
		if dir != "." {
			path += "/" + dir
		}
		files, ok := l.files[path]
		if !ok {
			return 0, fmt.Errorf("audited package %s is not in the module", path)
		}
		for _, f := range files {
			bad += checkFile(l.fset, f, w)
		}
	}
	return bad, nil
}

// checkFile writes each exported name of f without a doc comment to w and
// returns how many there are.
func checkFile(fset *token.FileSet, f *ast.File, w io.Writer) int {
	bad := 0
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		fmt.Fprintf(w, "%s:%d: %s %s has no doc comment\n", p.Filename, p.Line, kind, name)
		bad++
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil && receiverExported(d) {
				report(d.Pos(), "func", d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					// A block comment on the decl covers every spec in it;
					// otherwise each exported spec needs its own.
					if d.Doc != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() && s.Doc == nil && s.Comment == nil {
							report(n.Pos(), "const/var", n.Name)
							break
						}
					}
				}
			}
		}
	}
	return bad
}

// receiverExported reports whether a method's receiver type is exported (or
// the decl is a plain function); methods on unexported types are internal
// plumbing and exempt.
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}
