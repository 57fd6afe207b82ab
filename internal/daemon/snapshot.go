package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Snapshot kinds: an accepted desired-state document, or a set of failures
// that was successfully applied (logged at apply time, in apply order).
const (
	snapSpec     = "spec"
	snapFailures = "failures"
)

// snapEntry is one record of the apply log. The log is the daemon's
// crash-safe state: every accepted spec and applied failure set appends an
// entry, and a restarting daemon replays the entries through the very same
// SetSpec/InjectFailures/reconcile code paths. Placement is deterministic
// and failed solver attempts never mutate state, so replay reconstructs the
// exact slot table, SPI layout, and placement the daemon had — restarts
// resume instead of re-placing from scratch.
//
// Replay reconciles where the live daemon did: before an entry only when a
// reconcile pass that attempted an apply completed since the previous
// entry, and once after the last. Two inputs accepted within one reconcile
// interval are so applied by one pass on restart too, as they were live.
//
// Failures are logged only once applied; a failure injected but not yet
// reconciled when the daemon dies is lost and must be re-injected
// (documented in OPERATIONS.md).
type snapEntry struct {
	// Kind is snapSpec or snapFailures.
	Kind string `json:"kind"`
	// Spec is the accepted document's canonical JSON (Kind == snapSpec).
	Spec json.RawMessage `json:"spec,omitempty"`
	// Nodes are the applied failure names (Kind == snapFailures).
	Nodes []string `json:"nodes,omitempty"`
	// Batched marks an entry written before any pass that attempted an
	// apply completed since the previous entry: the live daemon's next pass
	// took both, so replay runs no pass between them. A failures entry is
	// written inside the pass that applied it, which has not completed yet.
	// Omitted otherwise, so a log written before the field replays as it
	// always did.
	Batched bool `json:"batched,omitempty"`
}

// appendSnapshotLocked makes one entry durable when SnapshotPath is
// configured: it is appended to the file and fsynced before the call
// returns, so whatever the daemon then acknowledges survives a crash. Write
// errors are returned to no one by design — the daemon keeps serving; the
// error is surfaced via lastErr on the status endpoint.
func (d *Daemon) appendSnapshotLocked(e snapEntry) {
	if d.cfg.SnapshotPath == "" {
		return
	}
	e.Batched, d.passed = !d.passed, false
	if err := appendSnapshot(d.cfg.SnapshotPath, e); err != nil {
		d.lastErr = fmt.Sprintf("snapshot write: %v", err)
	}
}

// appendSnapshot appends e to the log at path as one JSON line.
func appendSnapshot(path string, e snapEntry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o600)
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	if err := appendLine(f, fi.Size(), append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// logFile is what appendLine needs of the *os.File it appends to; tests
// substitute one whose writes fail part-way.
type logFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
}

// appendLine writes line at the end of f, which is size bytes long, and
// fsyncs it. A crash mid-write leaves a last line without its newline, which
// the next start discards (see loadSnapshot). A write or sync that fails in
// a live daemon truncates the file back to size, so that the next append
// cannot glue its line onto the fragment.
func appendLine(f logFile, size int64, line []byte) error {
	_, err := f.Write(line)
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		return nil
	}
	if terr := f.Truncate(size); terr != nil {
		return fmt.Errorf("%w (and the partial line could not be truncated away: %v)", err, terr)
	}
	return err
}

// loadSnapshot replays an existing snapshot file at startup. A missing file
// is a fresh start. Bytes after the last newline are an append that a crash
// cut short before it was acknowledged: they are dropped, and truncated off
// the file so the next append starts a line. A complete line that does not
// decode is an error (operators decide whether to delete the file —
// silently ignoring it would re-place from scratch and move every running
// chain). Each entry is re-applied through the normal code paths, with a
// reconcile pass in front of every entry that is not Batched but the first
// and one after the last, reproducing the live daemon's exact mutation
// sequence; snapshot writes are suppressed while replaying.
func (d *Daemon) loadSnapshot() error {
	raw, err := os.ReadFile(d.cfg.SnapshotPath)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("daemon: snapshot: %w", err)
	}
	if whole := bytes.LastIndexByte(raw, '\n') + 1; whole < len(raw) {
		if err := os.Truncate(d.cfg.SnapshotPath, int64(whole)); err != nil {
			return fmt.Errorf("daemon: snapshot: dropping the torn last line: %w", err)
		}
		raw = raw[:whole]
	}
	var entries []snapEntry
	dec := json.NewDecoder(bytes.NewReader(raw))
	for dec.More() {
		var e snapEntry
		if err := dec.Decode(&e); err != nil {
			return fmt.Errorf("daemon: snapshot %s entry %d: %w", d.cfg.SnapshotPath, len(entries), err)
		}
		entries = append(entries, e)
	}
	d.replaying = true
	defer func() { d.replaying = false }()
	// A pass between two entries reproduces the live daemon's interleaving
	// (slot/SPI layout depends on the order of admits across generations).
	// A transient apply failure here is not fatal — specs are logged at
	// accept time, so the log may contain a generation whose apply backed
	// off before a later generation superseded it; the replayed attempt
	// fails the same deterministic way the live one did.
	reconcile := func() {
		d.mu.Lock()
		d.reconcileLocked()
		d.mu.Unlock()
	}
	for i, e := range entries {
		if i > 0 && !e.Batched {
			reconcile()
		}
		switch e.Kind {
		case snapSpec:
			if _, err := d.SetSpec(e.Spec, fmt.Sprintf("snapshot entry %d", i)); err != nil {
				return fmt.Errorf("daemon: snapshot replay entry %d: %w", i, err)
			}
		case snapFailures:
			d.mu.Lock()
			err := d.injectLocked(e.Nodes)
			d.mu.Unlock()
			if err != nil {
				return fmt.Errorf("daemon: snapshot replay entry %d: %w", i, err)
			}
		default:
			return fmt.Errorf("daemon: snapshot replay entry %d: unknown kind %q", i, e.Kind)
		}
	}
	if len(entries) > 0 {
		reconcile()
	}
	return nil
}
