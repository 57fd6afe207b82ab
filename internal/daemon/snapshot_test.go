package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// writeTestLog runs a daemon through two accepted specs and one applied
// failure with SnapshotPath set, and returns the log it left plus the
// daemon's state fingerprint before the last op and after it.
func writeTestLog(t *testing.T, snap string) (log []byte, before, after string) {
	t.Helper()
	d, _ := newTestDaemon(t, func(c *Config) { c.SnapshotPath = snap })
	for _, names := range [][]string{{"alpha"}, {"alpha", "beta"}} {
		if _, err := d.SetSpec(specDoc(t, names), "test"); err != nil {
			t.Fatal(err)
		}
		d.Tick()
	}
	before = stateFingerprint(t, d)
	if err := d.InjectFailures([]string{"nf-server-0"}); err != nil {
		t.Fatal(err)
	}
	if rr := d.Tick(); !rr.Converged {
		t.Fatalf("not converged: %+v", rr)
	}
	if e := d.StatusSnapshot().SnapshotError; e != "" {
		t.Fatalf("snapshot writes failed: %s", e)
	}
	log, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(log, []byte("\n")); n != 3 || log[len(log)-1] != '\n' {
		t.Fatalf("log has %d newlines, want 3 lines each ended by one:\n%s", n, log)
	}
	return log, before, stateFingerprint(t, d)
}

// restartOn starts a daemon on a snapshot file holding content.
func restartOn(t *testing.T, snap string, content []byte) (*Daemon, error) {
	t.Helper()
	if err := os.WriteFile(snap, content, 0o600); err != nil {
		t.Fatal(err)
	}
	return New(Config{Interval: time.Second, SnapshotPath: snap, Clock: NewFakeClock(time.Unix(0, 0))})
}

// TestSnapshotTornTail: a crash at any byte of an append leaves a file the
// next start accepts, with every earlier entry and without the torn one —
// the whole status equals a start on the log before that op — and the file
// is cut back to its last newline, so that the next append starts a line.
// The last line is torn at every length, for a failures entry and for a
// spec entry.
func TestSnapshotTornTail(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "lemurd.snap")
	log, before, after := writeTestLog(t, snap)
	lines := bytes.SplitAfter(log, []byte("\n"))[:3]

	status := func(d *Daemon) string {
		b, err := json.Marshal(d.StatusSnapshot())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, whole := range []int{2, 1} { // complete lines in front of the torn one
		head := bytes.Join(lines[:whole], nil)
		d0, err := restartOn(t, snap, head)
		if err != nil {
			t.Fatal(err)
		}
		want := status(d0)
		if whole == 2 && stateFingerprint(t, d0) != before {
			t.Fatalf("restart on the first two entries is not the live state before the third:\n want %s\n got  %s",
				before, stateFingerprint(t, d0))
		}
		torn := lines[whole]
		for k := 1; k < len(torn); k++ {
			d, err := restartOn(t, snap, append(head[:len(head):len(head)], torn[:k]...))
			if err != nil {
				t.Fatalf("%d lines + %d of %d bytes: %v", whole, k, len(torn), err)
			}
			if got := status(d); got != want {
				t.Fatalf("%d lines + %d bytes: status differs from a start on %d lines:\n want %s\n got  %s",
					whole, k, whole, want, got)
			}
			if onDisk, _ := os.ReadFile(snap); !bytes.Equal(onDisk, head) {
				t.Fatalf("%d lines + %d bytes: file not cut back to its last newline (%d bytes, want %d)",
					whole, k, len(onDisk), len(head))
			}
		}
	}

	// After a torn start the log goes on: the next op appends a whole line.
	d, err := restartOn(t, snap, append(bytes.Join(lines[:2], nil), lines[2][:7]...))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.InjectFailures([]string{"nf-server-0"}); err != nil {
		t.Fatal(err)
	}
	d.Tick()
	if onDisk, _ := os.ReadFile(snap); !bytes.Equal(onDisk, log) {
		t.Fatalf("log after torn start + redo differs from the untorn log:\n want %s\n got  %s", log, onDisk)
	}
	if got := stateFingerprint(t, d); got != after {
		t.Fatalf("state after torn start + redo:\n want %s\n got  %s", after, got)
	}

	// Corruption that is not a torn tail stays a loud startup error.
	bad := bytes.Join([][]byte{lines[0], lines[1][:len(lines[1])/2], []byte("\n"), lines[2]}, nil)
	if _, err := restartOn(t, snap, bad); err == nil || !strings.Contains(err.Error(), "snapshot") {
		t.Fatalf("corrupt middle line: want snapshot error, got %v", err)
	}
}

// failingFile is a log file whose Write stores only the first keep bytes
// and then fails, as a full disk does.
type failingFile struct {
	*os.File
	keep int
}

var errDiskFull = errors.New("injected: no space left on device")

func (f failingFile) Write(b []byte) (int, error) {
	n, _ := f.File.Write(b[:f.keep])
	return n, errDiskFull
}

// TestSnapshotFailedAppendRollsBack: an append that fails part-way in a live
// daemon reports the error and leaves the file as it was, so the next append
// cannot glue onto a fragment and a restart still loads every earlier entry.
func TestSnapshotFailedAppendRollsBack(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "lemurd.snap")
	log, _, after := writeTestLog(t, snap)

	f, err := os.OpenFile(snap, os.O_APPEND|os.O_WRONLY, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	line := []byte(`{"kind":"failures","nodes":["nf-server-1"]}` + "\n")
	if err := appendLine(failingFile{f, 9}, int64(len(log)), line); !errors.Is(err, errDiskFull) {
		t.Fatalf("appendLine: want the write error, got %v", err)
	}
	if onDisk, _ := os.ReadFile(snap); !bytes.Equal(onDisk, log) {
		t.Fatalf("failed append left %d bytes, want the %d from before it", len(onDisk), len(log))
	}
	d, err := New(Config{Interval: time.Second, SnapshotPath: snap, Clock: NewFakeClock(time.Unix(0, 0))})
	if err != nil {
		t.Fatalf("restart after a failed append: %v", err)
	}
	if got := stateFingerprint(t, d); got != after {
		t.Fatalf("restart after a failed append:\n want %s\n got  %s", after, got)
	}

	// An append that cannot even open its file surfaces through the status.
	d2, _ := newTestDaemon(t, func(c *Config) { c.SnapshotPath = filepath.Join(t.TempDir(), "gone", "lemurd.snap") })
	if _, err := d2.SetSpec(specDoc(t, []string{"alpha"}), "test"); err != nil {
		t.Fatal(err)
	}
	if e := d2.StatusSnapshot().SnapshotError; !strings.Contains(e, "snapshot write") {
		t.Fatalf("unwritable snapshot not surfaced: snapshot_error = %q", e)
	}
}

// TestSnapshotErrorOutlivesReconcile: a failed append stays in the status
// through the reconcile passes after it, which clear only their own error,
// and the next append that succeeds clears it.
func TestSnapshotErrorOutlivesReconcile(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log")
	if err := os.Mkdir(dir, 0o700); err != nil {
		t.Fatal(err)
	}
	d, _ := newTestDaemon(t, func(c *Config) { c.SnapshotPath = filepath.Join(dir, "lemurd.snap") })
	if _, err := d.SetSpec(specDoc(t, []string{"alpha"}), "test"); err != nil {
		t.Fatal(err)
	}
	if rr := d.Tick(); !rr.Converged {
		t.Fatalf("first apply: %+v", rr)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := d.SetSpec(specDoc(t, []string{"alpha", "beta"}), "test"); err != nil {
		t.Fatal(err)
	}
	if rr := d.Tick(); !rr.Converged {
		t.Fatalf("apply with the log gone: %+v", rr)
	}
	st := d.StatusSnapshot()
	if !strings.HasPrefix(st.SnapshotError, "snapshot write") || st.LastError != "" {
		t.Fatalf("after a converged pass: snapshot_error = %q, last_error = %q; want the write error and no reconcile error",
			st.SnapshotError, st.LastError)
	}
	if err := os.Mkdir(dir, 0o700); err != nil {
		t.Fatal(err)
	}
	if _, err := d.SetSpec(specDoc(t, []string{"beta"}), "test"); err != nil {
		t.Fatal(err)
	}
	if e := d.StatusSnapshot().SnapshotError; e != "" {
		t.Fatalf("a successful append left snapshot_error = %q", e)
	}
}

// rackDoc is specDoc for the named chains on a four-server rack with two
// cores of admission headroom.
func rackDoc(t *testing.T, names ...string) []byte {
	t.Helper()
	var b strings.Builder
	for _, n := range names {
		b.WriteString(chainText(n, 2))
	}
	raw, err := json.Marshal(&Spec{
		Chains:    b.String(),
		Hardware:  HardwareSpec{Servers: 4},
		Placement: PlacementSpec{HeadroomCores: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestReplayMatchesLiveReconcilePoints: a restart reproduces the placement
// when two inputs land within one reconcile interval — two specs, or a spec
// and a failure. The live daemon reconciles them in one pass, and so must
// the replay: reconciling between them would admit the second spec's new
// chain into another slot (moving its SPI range), or repair the failure
// around a placement the live daemon never ran.
func TestReplayMatchesLiveReconcilePoints(t *testing.T) {
	for _, tc := range []struct {
		name  string
		batch func(t *testing.T, d *Daemon)
	}{
		{"two specs", func(t *testing.T, d *Daemon) {
			for _, doc := range [][]byte{rackDoc(t, "alpha", "beta", "gamma"), rackDoc(t, "beta", "delta")} {
				if _, err := d.SetSpec(doc, "test"); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"spec and failure", func(t *testing.T, d *Daemon) {
			if _, err := d.SetSpec(rackDoc(t, "alpha", "beta", "gamma"), "test"); err != nil {
				t.Fatal(err)
			}
			if err := d.InjectFailures([]string{"nf-server-0"}); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := filepath.Join(t.TempDir(), "lemurd.snap")
			mut := func(c *Config) { c.SnapshotPath = snap }
			d, _ := newTestDaemon(t, mut)
			if _, err := d.SetSpec(rackDoc(t, "alpha", "beta"), "test"); err != nil {
				t.Fatal(err)
			}
			if rr := d.Tick(); !rr.Converged {
				t.Fatalf("first apply: %+v", rr)
			}
			tc.batch(t, d)
			if rr := d.Tick(); !rr.Converged {
				t.Fatalf("batched apply: %+v", rr)
			}
			if e := d.StatusSnapshot().SnapshotError; e != "" {
				t.Fatalf("snapshot writes failed: %s", e)
			}
			for _, c := range d.StatusSnapshot().Chains {
				if c.Name == "delta" && c.Slot != 2 {
					t.Fatalf("live: delta runs in slot %d, want 2 (the slot after alpha's and beta's)", c.Slot)
				}
			}
			want := stateFingerprint(t, d)
			restarted, _ := newTestDaemon(t, mut)
			if got := stateFingerprint(t, restarted); got != want {
				t.Fatalf("restart did not reproduce the live placement:\n want %s\n got  %s", want, got)
			}
		})
	}
}
