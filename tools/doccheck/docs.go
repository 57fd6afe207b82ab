package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// docFiles are the documents whose references the docs check resolves.
var docFiles = []string{"README.md", "ARCHITECTURE.md", "OPERATIONS.md", "EXPERIMENTS.md", "DESIGN.md"}

// The references the docs check reads: a backticked `pkg.Name[.Sel…]`, a
// backticked test name, a backticked `-flag`, and the `-flag` tokens that
// follow `cmd/<tool> ` on a line, up to a backtick or the next `cmd/`.
var (
	symbolRef  = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Z][A-Za-z0-9]*(?:\\.[A-Za-z0-9_]+)*)")
	testRef    = regexp.MustCompile("`((?:Test|Fuzz|Benchmark)[A-Z][A-Za-z0-9_]*)")
	inlineFlag = regexp.MustCompile("`-([a-z][a-z0-9-]*)`")
	cmdRef     = regexp.MustCompile(`cmd/([a-z][a-z0-9-]*) `)
	cmdFlag    = regexp.MustCompile(`(?:^| )-([a-z][a-z0-9-]*)`)
	testFunc   = regexp.MustCompile(`^(?:Test|Fuzz|Benchmark)`)
	changesPR  = regexp.MustCompile(`^- PR ([0-9]+)`)
)

// The kinds of reference of which the docs must each hold one at least, so
// that a pattern that matches nothing cannot pass.
const (
	kindSymbol  = "package symbol"
	kindCmdFlag = "flag on a cmd/<tool> line"
	kindFlag    = "inline `-flag`"
	kindTest    = "test name"
)

// maxChangesEntry is the most bytes a CHANGES.md entry numbered 22 or
// later may take: the record says what changed and where to look, not the
// whole measurement.
const maxChangesEntry = 4096

// docs is the docs check. In each of docFiles under root it resolves:
//   - each backticked `pkg.Name[.Sel…]` whose pkg is the module's root
//     package or a package under internal/, exactly: Name in the package's
//     scope, each selector as a field or method of what precedes it,
//     unexported ones too. A name the package lacks is looked up in the
//     standard-library packages of that name that a loaded file imports, so
//     `runtime.MemStats` resolves. A reference that is exactly a metric name
//     of root/BENCHMARK.json passes, and one whose pkg names neither kind of
//     package (`cfg.Seed`, a variable in an example) is skipped;
//   - each `-flag` on a `cmd/<tool> ` line against that tool's flags, and
//     each backticked `-flag` against every tool's;
//   - each backticked test name against the module's and bench/'s tests.
//
// It fails if a kind of reference occurs nowhere in the docs, and on a
// root/CHANGES.md entry numbered 22 or later longer than maxChangesEntry
// bytes. It returns the number of findings and writes them to w.
func (l *loader) docs(root string, w io.Writer) (int, error) {
	metrics, err := readMetrics(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return 0, err
	}
	mod, std := l.packagesByName()
	allFlags := map[string]bool{}
	for _, fl := range l.flags {
		for f := range fl {
			allFlags[f] = true
		}
	}
	bad := 0
	report := func(pos, format string, args ...any) {
		fmt.Fprintf(w, "%s: %s\n", pos, fmt.Sprintf(format, args...))
		bad++
	}
	seen := map[string]int{}
	for _, name := range docFiles {
		text, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			return 0, err
		}
		for i, line := range strings.Split(string(text), "\n") {
			pos := name + ":" + strconv.Itoa(i+1)
			for _, m := range symbolRef.FindAllStringSubmatch(line, -1) {
				ref := m[1] + "." + m[2]
				problem, checked := "", true
				if !metrics[ref] {
					problem, checked = resolve(mod[m[1]], std[m[1]], strings.Split(m[2], "."))
				}
				if !checked {
					continue
				}
				seen[kindSymbol]++
				if problem != "" {
					report(pos, "`%s`: %s", ref, problem)
				}
			}
			for _, m := range testRef.FindAllStringSubmatch(line, -1) {
				seen[kindTest]++
				if !l.tests[m[1]] {
					report(pos, "`%s` is no test, fuzz target or benchmark of the module or of bench/", m[1])
				}
			}
			for _, m := range inlineFlag.FindAllStringSubmatch(line, -1) {
				seen[kindFlag]++
				if !allFlags[m[1]] {
					report(pos, "`-%s` is a flag of no cmd/ tool", m[1])
				}
			}
			starts := cmdRef.FindAllStringSubmatchIndex(line, -1)
			for j, m := range starts {
				tool := line[m[2]:m[3]]
				flags, ok := l.flags[tool]
				if !ok {
					continue
				}
				seg := line[m[1]:]
				if j+1 < len(starts) {
					seg = line[m[1]:starts[j+1][0]]
				}
				if k := strings.IndexByte(seg, '`'); k >= 0 {
					seg = seg[:k]
				}
				for _, f := range cmdFlag.FindAllStringSubmatch(seg, -1) {
					seen[kindCmdFlag]++
					if !flags[f[1]] {
						report(pos, "-%s is no flag of cmd/%s", f[1], tool)
					}
				}
			}
		}
	}
	for _, kind := range []string{kindSymbol, kindCmdFlag, kindFlag, kindTest} {
		if seen[kind] == 0 {
			report("docs", "no %s is referenced in %s, so its check would pass on nothing", kind, strings.Join(docFiles, ", "))
		}
	}
	n, err := checkChanges(filepath.Join(root, "CHANGES.md"), w)
	return bad + n, err
}

// packagesByName returns the module's root package by its name and its
// internal/ packages by their path below internal/, and the
// standard-library packages that loaded files import by their names.
func (l *loader) packagesByName() (mod map[string]*types.Package, std map[string][]*types.Package) {
	mod, std = map[string]*types.Package{}, map[string][]*types.Package{}
	seen := map[*types.Package]bool{}
	for path, p := range l.checked {
		if path == l.module {
			mod[p.Name()] = p
		} else if rest, ok := strings.CutPrefix(path, l.module+"/internal/"); ok {
			mod[rest] = p
		}
		for _, imp := range p.Imports() {
			if _, inModule := l.checked[imp.Path()]; !inModule && !seen[imp] {
				seen[imp] = true
				std[imp.Name()] = append(std[imp.Name()], imp)
			}
		}
	}
	return mod, std
}

// resolve looks up Name (sel[0]) in the module package p, or, if p lacks
// it, in the standard-library packages std, and each further selector as a
// field or method of what precedes it. It returns what does not resolve
// ("" if all does), and checked false if there is neither a p nor a std
// package to look in.
func resolve(p *types.Package, std []*types.Package, sel []string) (problem string, checked bool) {
	if p == nil && len(std) == 0 {
		return "", false
	}
	if p != nil {
		if obj := p.Scope().Lookup(sel[0]); obj != nil {
			return resolveSelectors(obj, sel[1:]), true
		}
	}
	problem = "no package-level " + sel[0] + " in the package or in an imported standard-library package of that name"
	for _, s := range std {
		if obj := s.Scope().Lookup(sel[0]); obj != nil {
			if problem = resolveSelectors(obj, sel[1:]); problem == "" {
				break
			}
		}
	}
	return problem, true
}

// resolveSelectors looks up each of sel as a field or method of the type of
// what precedes it, starting at obj, and returns the first that does not
// resolve with what it was looked up on, or "".
func resolveSelectors(obj types.Object, sel []string) string {
	for _, s := range sel {
		next, _, _ := types.LookupFieldOrMethod(obj.Type(), true, obj.Pkg(), s)
		if next == nil {
			return fmt.Sprintf("%s (%s) has no field or method %s", obj.Name(), obj.Type(), s)
		}
		obj = next
	}
	return ""
}

// recordFlags notes, as flags of tool, the constant argument at the
// parameter named name of each call in f to a func of package flag or a
// method of *flag.FlagSet that defines a flag: one that also takes a usage
// (so not NewFlagSet, Lookup or Set).
func (l *loader) recordFlags(tool string, f *ast.File, info *types.Info) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
			return true
		}
		params := fn.Type().(*types.Signature).Params()
		name, usage := -1, false
		for i := 0; i < params.Len(); i++ {
			switch params.At(i).Name() {
			case "name":
				name = i
			case "usage":
				usage = true
			}
		}
		if name < 0 || !usage || name >= len(call.Args) {
			return true
		}
		if v := info.Types[call.Args[name]].Value; v != nil && v.Kind() == constant.String {
			l.flags[tool][constant.StringVal(v)] = true
		}
		return true
	})
}

// readMetrics returns the metric names, end-to-end and per-layer, that the
// BENCHMARK.json at path declares.
func readMetrics(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var decl struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]bool{}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		out[m.Name] = true
	}
	return out, nil
}

// checkChanges fails each entry (a `- PR <n>` line) of the CHANGES.md at
// path numbered 22 or later that is longer than maxChangesEntry bytes.
func checkChanges(path string, w io.Writer) (int, error) {
	text, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	bad := 0
	for i, line := range strings.Split(string(text), "\n") {
		m := changesPR.FindStringSubmatch(line)
		if m == nil || len(line) <= maxChangesEntry {
			continue
		}
		if n, _ := strconv.Atoi(m[1]); n >= 22 {
			fmt.Fprintf(w, "%s:%d: the entry for PR %d is %d bytes, over %d\n", path, i+1, n, len(line), maxChangesEntry)
			bad++
		}
	}
	return bad, nil
}
