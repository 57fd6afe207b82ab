package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"lemur/internal/bess"
	"lemur/internal/metacompiler"
	"lemur/internal/nfgraph"
	"lemur/internal/nfspec"
	"lemur/internal/placer"
)

// Snapshot kinds: an accepted desired-state document, a set of failures
// that was successfully applied (logged at apply time, in apply order), or
// a checkpoint of the state the entries before it built.
const (
	snapSpec       = "spec"
	snapFailures   = "failures"
	snapCheckpoint = "checkpoint"
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
//
// A checkpoint is only ever the first entry: compaction replaces the whole
// log with one (see compactLocked). Replay restores it instead of re-running
// the entries it stands for, then goes on with the entries after it.
type snapEntry struct {
	// Kind is snapSpec, snapFailures or snapCheckpoint.
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
	// Checkpoint is the state at the checkpoint (Kind == snapCheckpoint).
	Checkpoint *checkpoint `json:"checkpoint,omitempty"`
}

// checkpoint is the state a replay of the log up to it would rebuild: the
// desired spec, the generation counters, the failures injected, the last
// pass's backoff, and the applied state — slot table, placement, core
// shares and install order — from which the deployment is rebuilt without
// re-running a solve. It is taken at a point the entries after it can
// resume from: right after a spec entry (in SetSpec), or at the end of the
// pass that appended a failures entry.
type checkpoint struct {
	// Spec is the desired-state document.
	Spec json.RawMessage `json:"spec"`
	// Generation and AppliedGen are the daemon's. Whether it converged
	// is not kept: the pass a restart runs after the log decides it, or,
	// gated by BackoffErr, leaves it false.
	Generation int64 `json:"generation"`
	AppliedGen int64 `json:"applied_generation"`
	// BackoffErr is the error of the failed pass the daemon is backing off
	// from ("" when none); a restart arms the backoff anew.
	BackoffErr string `json:"backoff_err,omitempty"`
	// Injected are the injected failure names, in arrival order.
	Injected []string `json:"injected,omitempty"`
	// Applied is the running deployment; nil before the first apply.
	Applied *appliedCheckpoint `json:"applied,omitempty"`
}

// appliedCheckpoint is the actual state of a checkpoint.
type appliedCheckpoint struct {
	// Parallel is the placer input's worker count.
	Parallel int `json:"parallel,omitempty"`
	// Slots are the live slots, aligned with Result.Chains. A retired slot
	// is only a position: nothing reads its chain again.
	Slots []checkpointSlot `json:"slots"`
	// Result is the applied placement.
	Result *placer.Record `json:"result"`
	// Shares are the core shares of Result.Subgroups, in their order.
	Shares [][]bess.CoreShare `json:"shares"`
	// Order lists the live slots in the order they were last installed.
	Order []int `json:"order"`
	// Handled are the failure names already repaired; Dead the expanded
	// dead set. Both sorted.
	Handled []string `json:"handled,omitempty"`
	Dead    []string `json:"dead,omitempty"`
}

// checkpointSlot is one live slot: its chain's name and, unless the desired
// spec defines the same chain under that name, the chain itself in its
// fingerprint form (its canonical JSON).
type checkpointSlot struct {
	Name  string          `json:"name"`
	Chain json.RawMessage `json:"chain,omitempty"`
}

// snapLog is where the log file stands against the compaction rule.
type snapLog struct {
	// tail counts the bytes after the checkpoint, or the whole file when
	// it has none. limit is the size tail must pass to trigger a
	// compaction: the checkpoint's, or before the first one the size of the
	// last checkpoint the daemon encoded and found no smaller than the log.
	tail, limit int64
	// ckpt reports that the file starts with a checkpoint.
	ckpt bool
	// every compacts after every entry and never turns compaction off;
	// tests set them to hold replay to both extremes.
	every, never bool
}

// appendSnapshotLocked makes one entry durable when SnapshotPath is
// configured: it is appended to the file and fsynced before the call
// returns, so whatever the daemon then acknowledges survives a crash. Write
// errors are returned to no one by design — the daemon keeps serving; the
// error is surfaced via snapErr on the status endpoint until an append
// succeeds.
func (d *Daemon) appendSnapshotLocked(e snapEntry) {
	if d.cfg.SnapshotPath == "" {
		return
	}
	e.Batched, d.passed = !d.passed, false
	n, err := appendSnapshot(d.cfg.SnapshotPath, e)
	if err != nil {
		d.snapErr = fmt.Sprintf("snapshot write: %v", err)
		return
	}
	d.snapErr = ""
	d.log.tail += n
}

// appendSnapshot appends e to the log at path as one JSON line and returns
// the line's length.
func appendSnapshot(path string, e snapEntry) (int64, error) {
	line, err := json.Marshal(e)
	if err != nil {
		return 0, err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o600)
	if err != nil {
		return 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	if err := appendLine(f, fi.Size(), append(line, '\n')); err != nil {
		f.Close()
		return 0, err
	}
	return int64(len(line)) + 1, f.Close()
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

// compactLocked replaces the log with one checkpoint once the bytes
// appended since the last checkpoint exceed that checkpoint's size. The log
// so stays below twice its checkpoint plus one entry, and a compaction,
// which writes one checkpoint the size of the live state, follows more than
// the previous checkpoint's size in appended bytes: while the live state
// keeps its size, O(1) per appended byte. A log without a checkpoint
// compacts the first time a checkpoint would be smaller than it. It runs
// where the state is one the entries after it can resume from: after a spec
// entry is appended, and at the end of a reconcile pass. A failed compaction
// leaves the log as it was (or, past the rename, replaced) and is surfaced
// like a failed append; the next entry tries again.
func (d *Daemon) compactLocked() {
	l := &d.log
	if d.cfg.SnapshotPath == "" || d.replaying || l.never || l.tail == 0 || (!l.every && l.tail <= l.limit) {
		return
	}
	line, err := d.checkpointLocked()
	if err != nil {
		d.snapErr = fmt.Sprintf("snapshot checkpoint: %v", err)
		return
	}
	if !l.ckpt && !l.every && int64(len(line)) >= l.tail {
		l.limit = int64(len(line))
		return
	}
	renamed, err := replaceLog(d.fs, d.cfg.SnapshotPath, line)
	if renamed {
		l.tail, l.limit, l.ckpt = 0, int64(len(line)), true
	}
	if err != nil {
		d.snapErr = fmt.Sprintf("snapshot compaction: %v", err)
	} else {
		d.snapErr = ""
	}
}

// checkpointLocked encodes the daemon's state as a checkpoint entry line.
func (d *Daemon) checkpointLocked() ([]byte, error) {
	c := &checkpoint{
		Spec:       d.desired.raw,
		Generation: d.generation,
		AppliedGen: d.appliedGen,
		Injected:   d.injected,
	}
	if d.backoff.active {
		c.BackoffErr = d.backoff.lastErr
	}
	if st := d.st; st != nil {
		rec, err := placer.RecordOf(st.in, st.res)
		if err != nil {
			return nil, err
		}
		if len(st.slots) != rec.Slots {
			return nil, fmt.Errorf("%d slots, placement has %d", len(st.slots), rec.Slots)
		}
		for i, s := range st.slots {
			if s.Retired != st.res.IsRetired(i) {
				return nil, fmt.Errorf("slot %d: the slot table and the placement disagree on its retirement", i)
			}
		}
		desired := make(map[string]string, len(d.desired.chains))
		for i, ch := range d.desired.chains {
			desired[ch.Name] = d.desired.fp[i]
		}
		a := &appliedCheckpoint{
			Parallel: st.in.Parallel,
			Slots:    make([]checkpointSlot, 0, len(rec.Chains)),
			Result:   rec,
			Shares:   make([][]bess.CoreShare, len(st.res.Subgroups)),
			Order:    st.dep.InstallOrder(),
			Handled:  sortedKeys(st.handled),
			Dead:     st.dead.Names(),
		}
		for _, cr := range rec.Chains {
			s := st.slots[cr.Slot]
			cs := checkpointSlot{Name: s.Name}
			if desired[s.Name] != s.FP {
				cs.Chain = json.RawMessage(s.FP)
			}
			a.Slots = append(a.Slots, cs)
		}
		for i, sg := range st.res.Subgroups {
			a.Shares[i] = st.dep.Shares[sg]
		}
		c.Applied = a
	}
	line, err := json.Marshal(snapEntry{Kind: snapCheckpoint, Checkpoint: c})
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// restoreLocked makes c the daemon's state: the desired spec is parsed, the
// placement decoded against an input of the live slots' chains (sharing the
// desired spec's graphs, as a replay's slots do) and the deployment rebuilt
// onto the recorded cores in the recorded install order. Nothing is placed
// or solved.
func (d *Daemon) restoreLocked(c *checkpoint) error {
	vs, err := parseSpec(c.Spec, nil)
	if err != nil {
		return err
	}
	d.desired, d.generation, d.appliedGen = vs, c.Generation, c.AppliedGen
	d.injected = c.Injected
	if a := c.Applied; a != nil {
		if err := d.restoreAppliedLocked(vs, a); err != nil {
			return err
		}
	}
	if c.BackoffErr != "" {
		d.lastErr = c.BackoffErr
		d.armBackoffLocked(d.clock.Now(), errors.New(c.BackoffErr))
	}
	return nil
}

// restoreAppliedLocked rebuilds the actual state a records.
func (d *Daemon) restoreAppliedLocked(vs *validSpec, a *appliedCheckpoint) error {
	rec := a.Result
	if rec == nil || len(a.Slots) != len(rec.Chains) || len(a.Shares) != len(rec.Subgroups) {
		return fmt.Errorf("applied state does not match its placement")
	}
	desired := make(map[string]int, len(vs.chains))
	for i, ch := range vs.chains {
		desired[ch.Name] = i
	}
	chains := make([]*nfgraph.Graph, rec.Slots)
	slots := make([]slotState, rec.Slots)
	for i := range slots {
		chains[i], slots[i] = &nfgraph.Graph{Chain: &nfspec.Chain{}}, slotState{Retired: true}
	}
	for i, cs := range a.Slots {
		ci := rec.Chains[i].Slot
		if ci < 0 || ci >= rec.Slots {
			return fmt.Errorf("slot %d out of range", ci)
		}
		if cs.Chain == nil {
			j, ok := desired[cs.Name]
			if !ok {
				return fmt.Errorf("slot %d runs chain %q, which the desired spec does not define", ci, cs.Name)
			}
			chains[ci], slots[ci] = vs.graphs[j], slotState{Name: cs.Name, FP: vs.fp[j]}
			continue
		}
		ch := &nfspec.Chain{}
		if err := json.Unmarshal(cs.Chain, ch); err != nil {
			return fmt.Errorf("slot %d: %w", ci, err)
		}
		if fp, err := chainFingerprint(ch); err != nil || fp != string(cs.Chain) || ch.Name != cs.Name {
			return fmt.Errorf("slot %d: chain %q does not round-trip", ci, cs.Name)
		}
		g, err := nfgraph.Build(ch)
		if err != nil {
			return fmt.Errorf("slot %d: %w", ci, err)
		}
		chains[ci], slots[ci] = g, slotState{Name: ch.Name, FP: string(cs.Chain)}
	}
	in := &placer.Input{
		Chains:        chains,
		Topo:          vs.topo,
		DB:            defaultDB(),
		Restrict:      restrictFor(vs.spec),
		Parallel:      a.Parallel,
		HeadroomCores: vs.spec.Placement.HeadroomCores,
	}
	res, err := rec.Decode(in)
	if err != nil {
		return err
	}
	shares := make(map[*placer.Subgroup][]bess.CoreShare, len(res.Subgroups))
	for i, sg := range res.Subgroups {
		shares[sg] = a.Shares[i]
	}
	dep, err := metacompiler.Restore(in, res, shares, a.Order)
	if err != nil {
		return err
	}
	d.st = &actualState{
		topo:    vs.topo,
		in:      in,
		res:     res,
		dep:     dep,
		slots:   slots,
		handled: placer.NewNodeSet(a.Handled...),
		dead:    placer.NewNodeSet(a.Dead...),
		hwKey:   hardwareKey(vs.spec),
	}
	return nil
}

// logFS is the file system a compaction writes through; tests substitute
// one that fails at a chosen step.
type logFS interface {
	Create(name string) (tempFile, error)
	Rename(from, to string) error
	SyncDir(dir string) error
}

// tempFile is what a compaction needs of the temporary file it writes.
type tempFile interface {
	io.Writer
	Sync() error
	Close() error
}

// osFS is the operating system's file system.
type osFS struct{}

func (osFS) Create(name string) (tempFile, error) {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(from, to string) error { return os.Rename(from, to) }

func (osFS) SyncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// replaceLog makes line the whole log at path: it is written to path.tmp
// and fsynced, renamed over path, and the directory is fsynced so that the
// rename survives a crash. A failure before the rename leaves the log as it
// was, beside a temporary file the next compaction truncates; renamed
// reports that the log was replaced.
func replaceLog(fs logFS, path string, line []byte) (renamed bool, err error) {
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return false, err
	}
	if _, err = f.Write(line); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return false, err
	}
	if err := fs.Rename(tmp, path); err != nil {
		return false, err
	}
	return true, fs.SyncDir(filepath.Dir(path))
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
		if e.Kind == snapCheckpoint && len(entries) > 0 {
			return fmt.Errorf("daemon: snapshot %s entry %d: a checkpoint after the first entry", d.cfg.SnapshotPath, len(entries))
		}
		entries = append(entries, e)
	}
	d.log.tail = int64(len(raw))
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
		case snapCheckpoint:
			if e.Checkpoint == nil {
				return fmt.Errorf("daemon: snapshot replay entry %d: empty checkpoint", i)
			}
			d.mu.Lock()
			err := d.restoreLocked(e.Checkpoint)
			d.mu.Unlock()
			if err != nil {
				return fmt.Errorf("daemon: snapshot checkpoint: %w", err)
			}
			first := int64(bytes.IndexByte(raw, '\n') + 1)
			d.log.ckpt, d.log.limit, d.log.tail = true, first, int64(len(raw))-first
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
