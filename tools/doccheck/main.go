// Command doccheck fails (exit 1) if any exported symbol in the given
// package directories lacks a doc comment. It is the CI docs gate behind
// the repo's godoc policy: exported identifiers in the audited packages
// must say what they are — for quantities, in which units; for anything
// that computes, whether the result is deterministic.
//
// Usage: go run ./tools/doccheck <pkg-dir> [<pkg-dir>...]
//
//	go run ./tools/doccheck -testonly
//	go run ./tools/doccheck -guards <manifest> <race.json> <cover.json>
//
// Checks exported funcs, methods, types, and the first name of exported
// const/var specs. Grouped specs inherit the block comment; struct fields
// are exempt (the struct's own comment may cover them) except when the
// struct itself is undocumented.
//
// With -testonly, run from the module root, it instead fails if an exported
// identifier under internal/ is used only by _test.go files and is not
// listed in tools/doccheck/testonly.txt, or if a line there names an
// identifier that is gone or used outside tests (see testonly.go).
//
// With -guards it instead reads the `go test -json` streams of ci.sh's two
// whole-suite passes (one under -race, one with -coverprofile) and fails
// unless every test tools/doccheck/guards.txt names passed in its pass,
// printing the output of every test that failed (see guards.go).
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	switch {
	case len(os.Args) == 2 && os.Args[1] == "-testonly":
		bad, err := testOnly(".", filepath.Join("tools", "doccheck", "testonly.txt"), os.Stdout)
		exit(bad, err, "test-only identifier(s) outside the allow-list")
		return
	case len(os.Args) == 5 && os.Args[1] == "-guards":
		bad, err := guards(os.Args[2], os.Args[3], os.Args[4], os.Stdout)
		exit(bad, err, "guard finding(s)")
		return
	case len(os.Args) < 2 || strings.HasPrefix(os.Args[1], "-"):
		fmt.Fprintln(os.Stderr, "usage: doccheck <pkg-dir> [<pkg-dir>...] | doccheck -testonly | doccheck -guards <manifest> <race.json> <cover.json>")
		os.Exit(2)
	}
	bad := 0
	for _, dir := range os.Args[1:] {
		bad += checkDir(dir)
	}
	exit(bad, nil, "exported symbol(s) without doc comments")
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

func checkDir(dir string) int {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %s: %v\n", dir, err)
		os.Exit(2)
	}
	bad := 0
	for _, pkg := range pkgs {
		for path, f := range pkg.Files {
			bad += checkFile(fset, filepath.ToSlash(path), f)
		}
	}
	return bad
}

func checkFile(fset *token.FileSet, path string, f *ast.File) int {
	bad := 0
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		fmt.Printf("%s:%d: %s %s has no doc comment\n", path, p.Line, kind, name)
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
