package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// testOnly is the -testonly mode: it loads every package of the module in
// root and of the benchmark module in root/bench and type-checks their
// non-test files. It fails on:
//   - a package-level func, method, type, const or var declared under
//     internal/ or in the module's root package, exported or not, that no
//     non-test file uses (see names);
//   - an exported one declared under internal/ that no non-test file of
//     another package uses (see names for the two exemptions);
//   - a field of a package-level struct type declared under internal/,
//     exported or not, that no non-test file reads (see unreadFields);
//
// unless the allow-list names it, and on an allow-list line that names
// something gone or no longer a finding. Test files are never parsed, so a
// use from a test does not count. It returns the number of findings and
// writes them to w.
func testOnly(root, allowPath string, w io.Writer) (int, error) {
	allow, err := readAllowList(allowPath)
	if err != nil {
		return 0, err
	}
	l := &loader{fset: token.NewFileSet(), checked: map[string]*types.Package{},
		uses: map[types.Object]bool{}, foreign: map[types.Object]bool{},
		reads: map[types.Object]bool{}, compared: map[*types.Struct]bool{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	module := ""
	for _, dir := range []string{root, filepath.Join(root, "bench")} {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
			continue // a tree without the benchmark module
		}
		pkgs, err := goList(dir)
		if err != nil {
			return 0, err
		}
		for _, p := range pkgs {
			if module == "" {
				module = p.Module.Path
			}
			if err := l.check(p); err != nil {
				return 0, err
			}
		}
	}
	findings := l.names(module)
	for name, f := range l.unreadFields(module + "/internal/") {
		findings[name] = f
	}
	bad := 0
	for _, name := range sortedKeys(findings) {
		if _, ok := allow[name]; ok {
			delete(allow, name)
			continue
		}
		f := findings[name]
		fmt.Fprintf(w, "%s: %s %s (%s, or list it in %s)\n", f.pos, name, f.what, f.fix, allowPath)
		bad++
	}
	for _, name := range sortedKeys(allow) {
		fmt.Fprintf(w, "%s:%d: %s is gone or no longer a finding; delete the line\n", allowPath, allow[name], name)
		bad++
	}
	return bad, nil
}

// listedPkg is the part of `go list -json` output the check reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	Standard   bool
	GoFiles    []string
	Module     *struct{ Path string }
}

// goList lists the packages of the module in dir, dependencies first,
// leaving out the standard library.
func goList(dir string) ([]*listedPkg, error) {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %w", dir, err)
	}
	var pkgs []*listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listedPkg)
		if err := dec.Decode(p); err != nil {
			return nil, err
		}
		if !p.Standard {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}

// readAllowList reads `pkg.Name  # reason` lines (or `pkg.Type.Method`,
// `pkg.Type.Field`) into a map from name to line number. Blank lines and
// lines starting with # are skipped; a line without a reason, or naming a
// name twice, is an error.
func readAllowList(path string) (map[string]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]int{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, ok := strings.Cut(line, "#")
		name = strings.TrimSpace(name)
		if _, dup := allow[name]; dup || !ok || strings.TrimSpace(reason) == "" || strings.ContainsAny(name, " \t") {
			return nil, fmt.Errorf("%s:%d: want one `pkg.Name  # reason` per identifier", path, n)
		}
		allow[name] = n
	}
	return allow, sc.Err()
}

// loader type-checks module packages from source in dependency order, so
// that every package sees the same objects for what it imports.
type loader struct {
	fset    *token.FileSet
	std     types.Importer
	checked map[string]*types.Package
	// decls are the package-level objects and methods declared in non-test
	// files, uses the objects some non-test file refers to outside their
	// own declaration, and foreign those a non-test file of another
	// package refers to. named are the module's package-level named types
	// and literals the interface types written in non-test files.
	decls    []types.Object
	uses     map[types.Object]bool
	foreign  map[types.Object]bool
	named    []*types.Named
	literals []*types.Interface
	// reads are the fields some non-test file reads, and compared the
	// struct types that some non-test file compares with == or != or uses
	// as a map key, which reads every field they hold.
	reads    map[types.Object]bool
	compared map[*types.Struct]bool
}

// Import resolves a module package to its already-checked form and
// everything else through the source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.checked[path]; ok {
		return p, nil
	}
	return l.std.Import(path)
}

func (l *loader) check(p *listedPkg) error {
	if _, done := l.checked[p.ImportPath]; done {
		return nil
	}
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{}}
	pkg, err := (&types.Config{Importer: l}).Check(p.ImportPath, l.fset, files, info)
	if err != nil {
		return fmt.Errorf("type-check %s: %w", p.ImportPath, err)
	}
	l.checked[p.ImportPath] = pkg
	for _, f := range files {
		l.recordFile(pkg, f, info)
		l.recordReads(f, info)
	}
	for _, n := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok && !tn.IsAlias() {
			if named, ok := tn.Type().(*types.Named); ok {
				l.named = append(l.named, named)
			}
		}
	}
	return nil
}

// recordFile notes the file's package-level declarations, its uses and its
// interface literals. A use inside the used object's own declaration
// (recursion, a self-referencing type) or in a method receiver does not
// count.
func (l *loader) recordFile(pkg *types.Package, f *ast.File, info *types.Info) {
	type span struct{ from, to token.Pos }
	own := map[types.Object]span{}
	receivers := map[*ast.Ident]bool{}
	declare := func(id *ast.Ident, decl ast.Node) {
		if obj := info.Defs[id]; obj != nil { // nil for the blank identifier
			own[obj] = span{decl.Pos(), decl.End()}
			if id.Name != "init" && id.Name != "main" {
				l.decls = append(l.decls, obj)
			}
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			declare(d.Name, d)
			if d.Recv != nil {
				ast.Inspect(d.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						receivers[id] = true
					}
					return true
				})
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					declare(s.Name, s)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						declare(n, s)
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := origin(info.Uses[n]); obj != nil && !receivers[n] {
				if s, ok := own[obj]; !ok || n.Pos() < s.from || n.Pos() >= s.to {
					l.uses[obj] = true
					if obj.Pkg() != pkg {
						l.foreign[obj] = true
					}
				}
			}
		case *ast.InterfaceType:
			if it, ok := info.TypeOf(n).(*types.Interface); ok && it.NumMethods() > 0 {
				l.literals = append(l.literals, it)
			}
		}
		return true
	})
}

// recordReads notes the fields the file reads and the struct types it
// compares. A field named as the target of `=`, `op=`, `++` or `--`, as a
// composite-literal key, or in `&x.f` passed to a sync/atomic Add* or
// Store* is written there, not read; every other use of it reads it.
func (l *loader) recordReads(f *ast.File, info *types.Info) {
	writes := map[*ast.Ident]bool{}
	written := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			writes[sel.Sel] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				written(lhs)
			}
		case *ast.IncDecStmt:
			written(n.X)
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				writes[id] = true
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && len(n.Args) > 0 && atomicWrite(sel, info) {
				if addr, ok := ast.Unparen(n.Args[0]).(*ast.UnaryExpr); ok && addr.Op == token.AND {
					written(addr.X)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				l.compare(info.TypeOf(n.X))
			}
		case *ast.SwitchStmt:
			if n.Tag != nil {
				l.compare(info.TypeOf(n.Tag))
			}
		case *ast.MapType:
			l.compare(info.TypeOf(n.Key))
		case *ast.Ident: // after the node that makes it a write, if any
			if v, ok := info.Uses[n].(*types.Var); ok && v.IsField() && !writes[n] {
				l.reads[v.Origin()] = true
			}
		}
		return true
	})
}

// atomicWrite reports whether sel names a sync/atomic Add* or Store* func.
func atomicWrite(sel *ast.SelectorExpr, info *types.Info) bool {
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil &&
		(strings.HasPrefix(fn.Name(), "Add") || strings.HasPrefix(fn.Name(), "Store"))
}

// compare marks the struct type under t, and the struct types its fields
// and array elements hold, as compared.
func (l *loader) compare(t types.Type) {
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Array:
		l.compare(u.Elem())
	case *types.Struct:
		if l.compared[u] {
			return
		}
		l.compared[u] = true
		for i := 0; i < u.NumFields(); i++ {
			l.compare(u.Field(i).Type())
		}
	}
}

// origin maps an instantiated generic func or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// finding is where a finding's object is declared, what is wrong with it
// and how to mend it.
type finding struct {
	pos       token.Position
	what, fix string
}

// names returns the package-level objects and methods declared in the
// module's root package or in packages under its internal/ that break a
// rule, keyed `pkg.Name` or `pkg.Type.Method`, with pkg the root package's
// name or the path below internal/:
//   - one, exported or not, that no non-test file uses;
//   - an exported one under internal/ that no non-test file of another
//     package (cmd/, the root package, bench/ or another internal/ one)
//     uses.
//
// A method that makes a module type, its own or one that embeds it,
// satisfy a package-level interface of the module or of the standard
// library it imports, or an interface literal of a non-test file, counts
// as used by another package. So does a type named, through pointers,
// slices, maps or func signatures, in the type of an object another
// package uses (see exposed): no exported func returns an unexported type.
func (l *loader) names(module string) map[string]finding {
	ifaces := append(l.interfaces(), l.literals...)
	exposed := l.exposed()
	out := map[string]finding{}
	for _, obj := range l.decls {
		pkg, name := obj.Pkg().Path(), obj.Name()
		internal := false
		if pkg == module {
			pkg = obj.Pkg().Name()
		} else if rest, ok := strings.CutPrefix(pkg, module+"/internal/"); ok {
			pkg, internal = rest, true
		} else {
			continue
		}
		f := finding{l.fset.Position(obj.Pos()), "is used by no non-test file", "delete it"}
		if l.uses[obj] {
			if !internal || !obj.Exported() || l.foreign[obj] || exposed[obj] {
				continue
			}
			f.what, f.fix = "is used only inside its own package", "unexport it"
		}
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			if l.satisfies(fn, ifaces) {
				continue
			}
			recv := fn.Type().(*types.Signature).Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			name = recv.(*types.Named).Obj().Name() + "." + name
		}
		out[pkg+"."+name] = f
	}
	return out
}

// exposed returns the package-level type names named in the type of an
// object some non-test file of another package uses: through pointers,
// slices, arrays, maps, channels, func signatures, anonymous structs and
// type arguments, and, for a type name itself, through its underlying type
// unless that is a struct or an interface, whose fields and methods are
// objects of their own.
func (l *loader) exposed() map[types.Object]bool {
	out := map[types.Object]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			out[t.Origin().Obj()] = true
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					walk(tuple.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				walk(t.Field(i).Type())
			}
		}
	}
	for obj := range l.foreign {
		if _, ok := obj.(*types.TypeName); ok {
			switch u := obj.Type().Underlying().(type) {
			case *types.Struct, *types.Interface:
			default:
				walk(u)
			}
			continue
		}
		walk(obj.Type())
	}
	return out
}

// unreadFields returns the fields of the package-level struct types under
// prefix that no non-test file reads, keyed `pkg.Type.Field` with pkg the
// path below prefix. An embedded field, a field with a struct tag (an
// encoder reads it) and a field of a struct type some non-test file
// compares or uses as a map key count as read.
func (l *loader) unreadFields(prefix string) map[string]finding {
	out := map[string]finding{}
	for _, named := range l.named {
		pkg, ok := strings.CutPrefix(named.Obj().Pkg().Path(), prefix)
		st, isStruct := named.Underlying().(*types.Struct)
		if !ok || !isStruct || l.compared[st] {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Embedded() || st.Tag(i) != "" || f.Name() == "_" || l.reads[f] {
				continue
			}
			out[pkg+"."+named.Obj().Name()+"."+f.Name()] = finding{l.fset.Position(f.Pos()), "is read by no non-test file", "delete it"}
		}
	}
	return out
}

// interfaces returns the package-level interfaces with methods of every
// checked package and of everything they import.
func (l *loader) interfaces() []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.checked {
		walk(p)
	}
	return out
}

// satisfies reports whether method m is what makes some module type, or a
// pointer to it, satisfy one of ifaces that has a method of m's name.
func (l *loader) satisfies(m *types.Func, ifaces []*types.Interface) bool {
	for _, t := range l.named {
		ptr := types.NewPointer(t)
		if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != m {
			continue
		}
		for _, it := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(it, false, m.Pkg(), m.Name()); obj != nil &&
				(types.Implements(t, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
