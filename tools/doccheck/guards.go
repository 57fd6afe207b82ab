package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// The two whole-suite passes of ci.sh a guard can name.
const (
	racePass  = "race"  // go test -race -count=1 -json ./...
	coverPass = "cover" // go test -count=1 -json -coverprofile=… ./...
)

// guard is one manifest line: the test that must have passed, in its
// package, in its pass.
type guard struct {
	pass, pkg, test string
	line            int
}

// testEvent is the part of a test2json event (go doc test2json) the check
// reads. Build events carry ImportPath instead of Package.
type testEvent struct {
	Action     string
	Package    string
	ImportPath string
	Test       string
	Output     string
}

// streamResult is what one pass's test2json stream says: how each test
// ended and, in stream order, what failed and what it printed.
type streamResult struct {
	ended    map[string]string // "pkg test" → "pass", "skip" or "fail"
	failures []string          // each failed test or package with its output, in order
}

// guards is the -guards mode: every test the manifest names must have a
// "pass" event for its package in the stream of its pass (racePath or
// coverPath), so a renamed, deleted, skipped or failed guard is a finding.
// Every failed test or package in either stream is a finding too, and its
// output is written to w, so a red run reads without -v text. A malformed
// or repeated manifest line, an unreadable stream and a stream without a
// single pass event are errors: the check must not pass on nothing. It
// returns the number of findings.
func guards(manifest, racePath, coverPath string, w io.Writer) (int, error) {
	list, err := readGuards(manifest)
	if err != nil {
		return 0, err
	}
	streams := map[string]*streamResult{}
	for _, s := range []struct{ pass, path string }{{racePass, racePath}, {coverPass, coverPath}} {
		r, err := readStream(s.path)
		if err != nil {
			return 0, err
		}
		streams[s.pass] = r
	}
	bad := 0
	for _, s := range []string{racePass, coverPass} {
		for _, out := range streams[s].failures {
			fmt.Fprintf(w, "--- %s pass: %s", s, out)
			bad++
		}
	}
	n := map[string]int{}
	for _, g := range list {
		ended := streams[g.pass].ended[g.pkg+" "+g.test]
		if ended == "pass" {
			n[g.pass]++
			continue
		}
		why := "has no event (renamed or deleted?)"
		if ended != "" {
			why = "ended in " + ended
		}
		fmt.Fprintf(w, "%s:%d: guard %s in %s did not pass in the %s pass: it %s\n", manifest, g.line, g.test, g.pkg, g.pass, why)
		bad++
	}
	if bad == 0 {
		fmt.Fprintf(w, "%d guards passed (%d %s, %d %s)\n", len(list), n[racePass], racePass, n[coverPass], coverPass)
	}
	return bad, nil
}

// readGuards parses the manifest: `race|cover <import path> <TestName>` per
// line, blank lines and `#` lines skipped.
func readGuards(path string) ([]guard, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var list []guard
	seen := map[guard]int{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 || (fields[0] != racePass && fields[0] != coverPass) || !strings.HasPrefix(fields[2], "Test") {
			return nil, fmt.Errorf("%s:%d: want `race|cover <import path> <TestName>`, got %q", path, line, text)
		}
		g := guard{pass: fields[0], pkg: fields[1], test: fields[2]}
		if first, ok := seen[g]; ok {
			return nil, fmt.Errorf("%s:%d: repeats line %d", path, line, first)
		}
		seen[g] = line
		g.line = line
		list = append(list, g)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return list, nil
}

// readStream reads one pass's `go test -json` output.
func readStream(path string) (*streamResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := &streamResult{ended: map[string]string{}}
	output := map[string][]string{} // "pkg test" (test "" for the package) → its output lines so far
	anyPass := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	for line := 1; sc.Scan(); line++ {
		var ev testEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("%s:%d: not a test2json event: %v", path, line, err)
		}
		pkg := ev.Package
		if pkg == "" {
			pkg = ev.ImportPath
		}
		key := pkg + " " + ev.Test
		switch ev.Action {
		case "output", "build-output":
			output[key] = append(output[key], ev.Output)
		case "pass", "skip":
			anyPass = anyPass || ev.Action == "pass"
			if ev.Test != "" {
				r.ended[key] = ev.Action
			}
			delete(output, key)
		case "fail", "build-fail":
			what := "package " + pkg
			if ev.Test != "" {
				r.ended[key] = "fail"
				what = ev.Test + " in " + pkg
			}
			r.failures = append(r.failures, fmt.Sprintf("%s failed:\n%s", what, strings.Join(output[key], "")))
			delete(output, key)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if !anyPass {
		return nil, fmt.Errorf("%s: no test passed: the pass did not run", path)
	}
	return r, nil
}
