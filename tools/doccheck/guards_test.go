package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stream renders test2json events, each "action pkg test [output]" with
// "-" for no test, as one JSON object a line.
func stream(t *testing.T, events ...string) string {
	t.Helper()
	var b strings.Builder
	for _, e := range events {
		f := strings.SplitN(e, " ", 4)
		ev := testEvent{Action: f[0], Package: f[1]}
		if f[2] != "-" {
			ev.Test = f[2]
		}
		if len(f) == 4 {
			ev.Output = f[3] + "\n"
		}
		line, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestGuards runs the -guards check on hand-written streams of the two
// passes: a manifest whose guards all passed passes; a guard renamed (no
// event), skipped, failed, or passed only in the other pass is a finding
// that names it, and a failed test's output is printed; an empty stream, a
// duplicate manifest line and a malformed one are errors.
func TestGuards(t *testing.T) {
	const manifest = `# why the group is guarded
race  m/a TestA
cover m/a TestB
race  m/b TestA
`
	race := []string{
		"start m/a -", "run m/a TestA", "output m/a TestA === RUN   TestA", "pass m/a TestA", "pass m/a -",
		"run m/b TestA", "pass m/b TestA", "pass m/b -",
	}
	cover := []string{"run m/a TestA", "pass m/a TestA", "run m/a TestB", "pass m/a TestB", "pass m/a -"}
	for _, tc := range []struct {
		name        string
		manifest    string
		race, cover []string
		want        []string // what the output says, in order; "guard …" and "--- …" lines are findings
		wantErr     string
	}{
		{name: "all passed", manifest: manifest, race: race, cover: cover},
		{name: "renamed", manifest: manifest + "race m/b TestRenamed\n", race: race, cover: cover,
			want: []string{"guard TestRenamed in m/b did not pass in the race pass: it has no event"}},
		{name: "skipped", manifest: manifest, race: race,
			cover: []string{"run m/a TestA", "pass m/a TestA", "run m/a TestB", "skip m/a TestB", "pass m/a -"},
			want:  []string{"guard TestB in m/a did not pass in the cover pass: it ended in skip"}},
		{name: "failed", manifest: manifest, cover: cover,
			race: []string{"run m/a TestA", "output m/a TestA want 1, got 2", "fail m/a TestA", "fail m/a -",
				"run m/b TestA", "pass m/b TestA", "pass m/b -"},
			want: []string{"--- race pass: TestA in m/a failed:", "want 1, got 2", "--- race pass: package m/a failed:",
				"guard TestA in m/a did not pass in the race pass: it ended in fail"}},
		{name: "other pass only", manifest: manifest + "race m/a TestB\n", race: race, cover: cover,
			want: []string{"guard TestB in m/a did not pass in the race pass: it has no event"}},
		{name: "empty stream", manifest: manifest, race: nil, cover: cover, wantErr: "no test passed"},
		{name: "duplicate line", manifest: manifest + "cover m/a TestB\n", race: race, cover: cover, wantErr: "repeats line 3"},
		{name: "malformed line", manifest: manifest + "both m/a TestB\n", race: race, cover: cover, wantErr: "want `race|cover"},
	} {
		dir := t.TempDir()
		paths := map[string]string{}
		for name, body := range map[string]string{"guards.txt": tc.manifest, "race.json": stream(t, tc.race...), "cover.json": stream(t, tc.cover...)} {
			paths[name] = filepath.Join(dir, name)
			if err := os.WriteFile(paths[name], []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var out strings.Builder
		bad, err := guards(paths["guards.txt"], paths["race.json"], paths["cover.json"], &out)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		findings := 0
		for _, w := range tc.want {
			if strings.HasPrefix(w, "guard ") || strings.HasPrefix(w, "--- ") {
				findings++
			}
		}
		if bad != findings {
			t.Errorf("%s: %d findings, want %d:\n%s", tc.name, bad, findings, out.String())
		}
		if bad == 0 && !strings.Contains(out.String(), "3 guards passed (2 race, 1 cover)") {
			t.Errorf("%s: no summary line:\n%s", tc.name, out.String())
		}
		rest := out.String()
		for _, w := range tc.want {
			i := strings.Index(rest, w)
			if i < 0 {
				t.Errorf("%s: output lacks %q (in order):\n%s", tc.name, w, out.String())
				break
			}
			rest = rest[i+len(w):]
		}
	}
}
