package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"lemur/internal/metacompiler"
)

// opChain is a cheap two-NF chain on an aggregate of its own, the shape the
// reconcile benchmark admits.
func opChain(id, tminMbps int) string {
	return fmt.Sprintf(`
chain c%d {
  slo { tmin = %dMbps  tmax = 100Gbps }
  aggregate { src = 10.%d.0.0/16 }
  mon0 = Monitor()
  fwd0 = IPv4Fwd()
  mon0 -> fwd0
}`, id, tminMbps, id%250)
}

// opServers is the rack every op script runs on.
const opServers = 3

// opDoc renders the desired-state document for the live chains (id -> t_min
// in Mbps).
func opDoc(live map[int]int) []byte {
	ids := make([]int, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var b strings.Builder
	for _, id := range ids {
		b.WriteString(opChain(id, live[id]))
	}
	raw, err := json.Marshal(&Spec{
		Chains:    b.String(),
		Hardware:  HardwareSpec{Servers: opServers},
		Placement: PlacementSpec{HeadroomCores: 2, Parallel: 1},
	})
	if err != nil {
		panic(err)
	}
	return raw
}

// scriptOp is one operator action of a seeded script.
type scriptOp struct {
	kind  string // admit, retire, redefine, fail, reject
	doc   []byte
	nodes []string
	// batched ops get no reconcile pass of their own: the next op's pass
	// applies both.
	batched bool
}

// opScript seeds n ops over at most maxLive chains: admits, retires, t_min
// redefinitions, two server failures, rejected documents, and ops batched
// with the next one. The first op is the base document; the last is never
// batched.
func opScript(seed int64, n, maxLive int) []scriptOp {
	rng := rand.New(rand.NewSource(seed))
	live := map[int]int{0: 500, 1: 500}
	ops := []scriptOp{{kind: "admit", doc: opDoc(live)}}
	next, failures := len(live), 0
	doomed := rng.Perm(opServers)
	pick := func() int {
		ids := make([]int, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		return ids[rng.Intn(len(ids))]
	}
	for len(ops) < n {
		r := rng.Float64()
		var op scriptOp
		switch {
		case len(ops)%17 == 16:
			op = scriptOp{kind: "reject", doc: []byte(`{"chains": "chain broken {"}`)}
		case r < 0.1 && failures < 2:
			op = scriptOp{kind: "fail", nodes: []string{fmt.Sprintf("nf-server-%d", doomed[failures])}}
			failures++
		case (r < 0.5 && len(live) < maxLive) || len(live) <= 1:
			live[next] = 500
			next++
			op = scriptOp{kind: "admit", doc: opDoc(live)}
		case r < 0.8:
			delete(live, pick())
			op = scriptOp{kind: "retire", doc: opDoc(live)}
		default:
			live[pick()] += 50 + rng.Intn(101)
			op = scriptOp{kind: "redefine", doc: opDoc(live)}
		}
		op.batched = len(ops) < n-1 && rng.Intn(5) == 0
		ops = append(ops, op)
	}
	return ops
}

// opDaemon is a daemon on a snapshot file with its fake clock.
type opDaemon struct {
	d   *Daemon
	clk *FakeClock
}

// startOn starts a daemon on the snapshot file at path, which it restores
// when it exists, compacting as the mode says ("every" entry, "never", or
// by the rule).
func startOn(t testing.TB, path, mode string) opDaemon {
	t.Helper()
	clk := NewFakeClock(time.Unix(0, 0))
	d, err := New(Config{Interval: time.Second, Clock: clk, SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	d.log.every, d.log.never = mode == "every", mode == "never"
	return opDaemon{d, clk}
}

// apply submits op and, unless it is batched, runs the reconcile pass after
// it and returns its result as JSON ("" for a batched op).
func (o opDaemon) apply(t testing.TB, op scriptOp) string {
	t.Helper()
	var err error
	if op.kind == "fail" {
		err = o.d.InjectFailures(op.nodes)
	} else {
		_, err = o.d.SetSpec(op.doc, "script:"+op.kind)
	}
	if (err != nil) != (op.kind == "reject") {
		t.Fatalf("%s: %v", op.kind, err)
	}
	if op.batched {
		return ""
	}
	o.clk.Advance(time.Second)
	rr := o.d.Tick()
	if !rr.Converged {
		t.Fatalf("%s: pass did not converge: %s", op.kind, rr.Err)
	}
	raw, err := json.Marshal(rr)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// comparableStatus is the status without what a restart legitimately
// changes: the per-process counters and the last rejected document, which
// the log does not carry.
func comparableStatus(t testing.TB, d *Daemon) string {
	t.Helper()
	st := d.StatusSnapshot()
	st.Counters, st.LastRejectedSpec = Counters{}, ""
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// artifacts renders the daemon's running deployment.
func artifacts(d *Daemon) *metacompiler.Artifacts {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.st == nil {
		return nil
	}
	return d.st.dep.Artifacts()
}

// restartFrom starts a daemon on a copy of log.
func restartFrom(t testing.TB, log []byte, mode string) opDaemon {
	t.Helper()
	path := filepath.Join(t.TempDir(), "restart.snap")
	if err := os.WriteFile(path, log, 0o600); err != nil {
		t.Fatal(err)
	}
	return startOn(t, path, mode)
}

func readLog(t testing.TB, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestRestartEquivalence: over seeded scripts of admits, retires,
// redefinitions, failures, rejected documents and batched ops, a daemon
// restarted after any prefix — from a log compacted after every entry, by
// the rule, or never — reports the comparable status of the live daemon and
// of a restart that replays the whole uncompacted log, renders byte-equal
// artifacts, and then runs the rest of the script to the same reconcile
// results and final status as the daemon that never stopped.
func TestRestartEquivalence(t *testing.T) {
	for _, mode := range []string{"every", "rule", "never"} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", mode, seed), func(t *testing.T) {
				ops := opScript(seed, 30, 5)
				dir := t.TempDir()
				live := startOn(t, filepath.Join(dir, "live.snap"), mode)
				full := startOn(t, filepath.Join(dir, "full.snap"), "never")
				type point struct {
					at         int
					status     string
					art        *metacompiler.Artifacts
					log, whole []byte
					ckpt       bool
				}
				var points []point
				results := make([]string, len(ops))
				for i, op := range ops {
					results[i] = live.apply(t, op)
					if got := full.apply(t, op); got != results[i] {
						t.Fatalf("op %d: compaction changed a live pass:\n want %s\n got  %s", i, got, results[i])
					}
					if op.batched {
						continue
					}
					log := readLog(t, live.d.cfg.SnapshotPath)
					points = append(points, point{
						at: i, status: comparableStatus(t, live.d), art: artifacts(live.d),
						log: log, whole: readLog(t, full.d.cfg.SnapshotPath),
						ckpt: bytes.HasPrefix(log, []byte(`{"kind":"checkpoint"`)),
					})
				}
				final := comparableStatus(t, live.d)
				if mode != "never" && !points[len(points)-1].ckpt {
					t.Fatalf("%s: the log never compacted", mode)
				}
				for _, p := range points {
					r := restartFrom(t, p.log, mode)
					if got := comparableStatus(t, r.d); got != p.status {
						t.Fatalf("restart after op %d: status differs from the live daemon's:\n want %s\n got  %s", p.at, p.status, got)
					}
					if got := comparableStatus(t, restartFrom(t, p.whole, "never").d); got != p.status {
						t.Fatalf("full replay after op %d: status differs from the live daemon's:\n want %s\n got  %s", p.at, p.status, got)
					}
					if !reflect.DeepEqual(artifacts(r.d), p.art) {
						t.Fatalf("restart after op %d: artifacts differ", p.at)
					}
					for j := p.at + 1; j < len(ops); j++ {
						if got := r.apply(t, ops[j]); got != results[j] {
							t.Fatalf("restart after op %d, op %d: reconcile result differs:\n want %s\n got  %s", p.at, j, results[j], got)
						}
					}
					if got := comparableStatus(t, r.d); got != final {
						t.Fatalf("restart after op %d: final status differs:\n want %s\n got  %s", p.at, final, got)
					}
				}
			})
		}
	}
}

// TestRestartKeepsBackoff: a pass that repairs a failure but cannot admit
// ends in backoff, and the checkpoint taken at its end restarts into the
// same backoff — the same status as the live daemon and as a full replay,
// and the same gated pass after it.
func TestRestartKeepsBackoff(t *testing.T) {
	huge, err := json.Marshal(&Spec{
		Chains:    chainText("alpha", 2) + strings.Replace(chainText("beta", 2), "tmin = 2Gbps  tmax = 100Gbps", "tmin = 900Gbps  tmax = 990Gbps", 1),
		Hardware:  HardwareSpec{Servers: 2},
		Placement: PlacementSpec{HeadroomCores: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	live := startOn(t, filepath.Join(dir, "live.snap"), "every")
	full := startOn(t, filepath.Join(dir, "full.snap"), "never")
	// Every clock stays at the start, so a restart arms its backoff at the
	// instant the live daemon armed its own.
	for _, o := range []opDaemon{live, full} {
		if _, err := o.d.SetSpec(specDoc(t, []string{"alpha", "beta"}), "test"); err != nil {
			t.Fatal(err)
		}
		if rr := o.d.Tick(); !rr.Converged {
			t.Fatalf("first apply: %+v", rr)
		}
		if _, err := o.d.SetSpec(huge, "test"); err != nil {
			t.Fatal(err)
		}
		if err := o.d.InjectFailures([]string{"nf-server-1"}); err != nil {
			t.Fatal(err)
		}
		if rr := o.d.Tick(); rr.Err == "" || len(rr.Replaced) != 1 {
			t.Fatalf("want the failure repaired and the admission backing off, got %+v", rr)
		}
	}
	log := readLog(t, live.d.cfg.SnapshotPath)
	if !bytes.HasPrefix(log, []byte(`{"kind":"checkpoint"`)) || !bytes.Contains(log, []byte(`"backoff_err"`)) ||
		bytes.Count(log, []byte("\n")) != 1 {
		t.Fatalf("want one checkpoint line carrying the backoff, got:\n%s", log)
	}
	want := comparableStatus(t, live.d)
	if !strings.Contains(want, `"backing_off":true`) {
		t.Fatalf("live daemon is not backing off: %s", want)
	}
	wantNext, _ := json.Marshal(live.d.Tick())
	for name, l := range map[string][]byte{"checkpoint": log, "full replay": readLog(t, full.d.cfg.SnapshotPath)} {
		r := restartFrom(t, l, "never")
		if got := comparableStatus(t, r.d); got != want {
			t.Fatalf("%s: status differs:\n want %s\n got  %s", name, want, got)
		}
		if c := r.d.CountersSnapshot(); name == "checkpoint" && c.Errors+c.BackoffRetries != 0 {
			t.Fatalf("the checkpoint's backoff did not gate the restart's pass: %+v", c)
		}
		if got, _ := json.Marshal(r.d.Tick()); string(got) != string(wantNext) {
			t.Fatalf("%s: the pass after the restart differs:\n want %s\n got  %s", name, wantNext, got)
		}
	}
}

var errInjected = errors.New("injected: crash")

// faultFS fails the compaction step fail names; a failing write stores half
// its bytes first, as a crash mid-write leaves them.
type faultFS struct {
	osFS
	fail string
}

type faultTemp struct {
	tempFile
	fail string
}

func (f faultFS) Create(name string) (tempFile, error) {
	if f.fail == "create" {
		return nil, errInjected
	}
	tf, err := f.osFS.Create(name)
	if err != nil {
		return nil, err
	}
	return faultTemp{tf, f.fail}, nil
}

func (f faultTemp) Write(b []byte) (int, error) {
	if f.fail == "write" {
		n, _ := f.tempFile.Write(b[:len(b)/2])
		return n, errInjected
	}
	return f.tempFile.Write(b)
}

func (f faultTemp) Sync() error {
	if f.fail == "sync" {
		return errInjected
	}
	return f.tempFile.Sync()
}

func (f faultFS) Rename(from, to string) error {
	if f.fail == "rename" {
		return errInjected
	}
	return f.osFS.Rename(from, to)
}

func (f faultFS) SyncDir(dir string) error {
	if f.fail == "syncdir" {
		return errInjected
	}
	return f.osFS.SyncDir(dir)
}

// TestCompactionCrashPoints: a compaction that fails at any step — creating,
// writing or fsyncing the temporary file, renaming it, or fsyncing the
// directory — after a spec entry or after a failures entry leaves a log
// that restores the state of a daemon that never failed: the old log (plus
// the entry) before the rename, the checkpoint after it. The live daemon
// reports the failure and compacts at its next entry.
func TestCompactionCrashPoints(t *testing.T) {
	docs := []map[int]int{{0: 500, 1: 500}, {0: 500, 1: 500, 2: 500}, {0: 500, 2: 500}, {0: 650, 2: 500, 3: 500}}
	var ops []scriptOp
	for _, live := range docs {
		ops = append(ops, scriptOp{kind: "admit", doc: opDoc(live)})
	}
	for _, crash := range []scriptOp{
		{kind: "admit", doc: opDoc(map[int]int{0: 650, 2: 500, 3: 500, 4: 500})},
		{kind: "fail", nodes: []string{"nf-server-1"}},
	} {
		ref := startOn(t, filepath.Join(t.TempDir(), "ref.snap"), "never")
		for _, op := range append(ops, crash) {
			ref.apply(t, op)
		}
		want, wantArt := comparableStatus(t, ref.d), artifacts(ref.d)
		for _, step := range []string{"create", "write", "sync", "rename", "syncdir"} {
			t.Run(crash.kind+"/"+step, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "lemurd.snap")
				o := startOn(t, path, "never")
				for _, op := range ops {
					o.apply(t, op)
				}
				before := readLog(t, path)
				o.d.log.never, o.d.log.every, o.d.fs = false, true, faultFS{fail: step}
				o.apply(t, crash)
				// A failure past the rename leaves nothing to retry, and the
				// next successful append or compaction clears it from the
				// status.
				renamed := step == "syncdir"
				if e := o.d.StatusSnapshot().SnapshotError; !renamed && !strings.Contains(e, "snapshot compaction") {
					t.Fatalf("failed compaction not surfaced: snapshot_error = %q", e)
				}
				onDisk := readLog(t, path)
				if ckpt := bytes.HasPrefix(onDisk, []byte(`{"kind":"checkpoint"`)); ckpt != renamed ||
					(!renamed && !bytes.HasPrefix(onDisk, before)) {
					t.Fatalf("after a crash at %s the log is:\n%s", step, onDisk)
				}
				r := restartFrom(t, onDisk, "never")
				if got := comparableStatus(t, r.d); got != want {
					t.Fatalf("restart after a crash at %s:\n want %s\n got  %s", step, want, got)
				}
				if !reflect.DeepEqual(artifacts(r.d), wantArt) {
					t.Fatalf("restart after a crash at %s: artifacts differ", step)
				}

				// With the fault gone the next entry compacts the log.
				o.d.fs = osFS{}
				o.apply(t, ops[len(ops)-1])
				onDisk = readLog(t, path)
				if bytes.Count(onDisk, []byte("\n")) != 1 || !bytes.HasPrefix(onDisk, []byte(`{"kind":"checkpoint"`)) {
					t.Fatalf("the next entry did not compact the log:\n%s", onDisk)
				}
				if got, live := comparableStatus(t, restartFrom(t, onDisk, "never").d), comparableStatus(t, o.d); got != live {
					t.Fatalf("restart on the recompacted log:\n want %s\n got  %s", live, got)
				}
			})
		}
	}
}

// replayCost restarts a daemon on a copy of log and counts the work its
// replay did: the spec entries it parsed through SetSpec and the reconcile
// passes it ran.
func replayCost(t *testing.T, log []byte) (parses int, passes uint64) {
	t.Helper()
	r := restartFrom(t, log, "")
	return bytes.Count(log, []byte(`{"kind":"spec"`)), r.d.CountersSnapshot().Reconciles
}

// TestReplayBounded: replay is bounded by live state, not by history. Over
// 1 200 seeded ops the log never exceeds twice its checkpoint plus one
// entry, and no restart in the last fifty ops parses more spec entries or
// runs more reconcile passes than the most any restart in ops 151-200 does.
func TestReplayBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("1 200 ops")
	}
	ops := opScript(9, 1200, 5)
	path := filepath.Join(t.TempDir(), "lemurd.snap")
	o := startOn(t, path, "")
	var early, late [2]uint64 // most parses, most passes
	for i, op := range ops {
		o.apply(t, op)
		log := readLog(t, path)
		lines := bytes.SplitAfter(log, []byte("\n"))
		if bytes.HasPrefix(log, []byte(`{"kind":"checkpoint"`)) {
			longest := 0
			for _, l := range lines[1:] {
				longest = max(longest, len(l))
			}
			if len(log) > 2*len(lines[0])+longest {
				t.Fatalf("op %d: log of %d bytes exceeds twice its %d-byte checkpoint plus one entry", i, len(log), len(lines[0]))
			}
		} else if i >= 50 {
			t.Fatalf("op %d: no checkpoint yet", i)
		}
		window := &early
		switch {
		case i >= 150 && i < 200:
		case i >= len(ops)-50:
			window = &late
		default:
			continue
		}
		if op.batched {
			continue
		}
		parses, passes := replayCost(t, log)
		window[0], window[1] = max(window[0], uint64(parses)), max(window[1], passes)
	}
	if late[0] > early[0] || late[1] > early[1] {
		t.Fatalf("restarts after 1 200 ops parse %d entries and run %d passes; after 200, at most %d and %d",
			late[0], late[1], early[0], early[1])
	}
	t.Logf("most parses and passes per restart: %d, %d after ~200 ops; %d, %d after ~1 200", early[0], early[1], late[0], late[1])
}

// TestSnapshotDeterministic: two daemons fed the same ops write
// byte-identical logs, checkpoints included, after every op.
func TestSnapshotDeterministic(t *testing.T) {
	ops := opScript(5, 80, 5)
	a := startOn(t, filepath.Join(t.TempDir(), "a.snap"), "")
	b := startOn(t, filepath.Join(t.TempDir(), "b.snap"), "")
	compactions := 0
	for i, op := range ops {
		a.apply(t, op)
		b.apply(t, op)
		la, lb := readLog(t, a.d.cfg.SnapshotPath), readLog(t, b.d.cfg.SnapshotPath)
		if !bytes.Equal(la, lb) {
			t.Fatalf("op %d: the logs differ", i)
		}
		if bytes.Count(la, []byte("\n")) == 1 && bytes.HasPrefix(la, []byte(`{"kind":"checkpoint"`)) {
			compactions++
		}
	}
	if compactions < 3 {
		t.Fatalf("%d compactions in %d ops", compactions, len(ops))
	}
}

// TestLegacyLogReplays: a log written before checkpoints existed (recorded
// by that version of lemurd, with batched entries and applied failures)
// replays to the status that version reported, and a restart leaves the
// file as it was.
func TestLegacyLogReplays(t *testing.T) {
	log, err := os.ReadFile(filepath.Join("testdata", "legacy.snap"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "legacy.status"))
	if err != nil {
		t.Fatal(err)
	}
	r := restartFrom(t, log, "")
	if got := comparableStatus(t, r.d) + "\n"; got != string(want) {
		t.Fatalf("legacy log replays to another status:\n want %s got  %s", want, got)
	}
	if onDisk := readLog(t, r.d.cfg.SnapshotPath); !bytes.Equal(onDisk, log) {
		t.Fatal("a restart rewrote the legacy log")
	}
}
