package daemon

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// subnets gives every test chain a stable aggregate, so a chain's
// fingerprint depends only on its name and declared SLO.
var subnets = map[string]string{
	"alpha":   "10.1.0.0/16",
	"beta":    "10.2.0.0/16",
	"gamma":   "10.3.0.0/16",
	"delta":   "10.4.0.0/16",
	"epsilon": "10.5.0.0/16",
}

// chainText renders one cheap two-NF chain (the failover-test shape: a
// server NF feeding the switch-resident IPv4Fwd).
func chainText(name string, tminGbps int) string {
	return fmt.Sprintf(`
chain %s {
  slo { tmin = %dGbps  tmax = 100Gbps }
  aggregate { src = %s }
  mon0 = Monitor()
  fwd0 = IPv4Fwd()
  mon0 -> fwd0
}`, name, tminGbps, subnets[name])
}

// specDoc marshals a desired-state document for the named chains on a
// two-server rack with admission headroom.
func specDoc(t *testing.T, names []string, failed ...string) []byte {
	t.Helper()
	var b strings.Builder
	for _, n := range names {
		b.WriteString(chainText(n, 2))
	}
	raw, err := json.Marshal(&Spec{
		Chains:      b.String(),
		Hardware:    HardwareSpec{Servers: 2},
		Placement:   PlacementSpec{HeadroomCores: 4},
		FailedNodes: failed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// newTestDaemon builds a daemon on a fake clock with the given extra config.
func newTestDaemon(t *testing.T, mut func(*Config)) (*Daemon, *FakeClock) {
	t.Helper()
	clk := NewFakeClock(time.Unix(1700000000, 0))
	cfg := Config{Interval: 100 * time.Millisecond, Clock: clk}
	if mut != nil {
		mut(&cfg)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, clk
}

// activeNames lists the live chains of the daemon's slot table.
func activeNames(d *Daemon) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	if d.st == nil {
		return out
	}
	for _, s := range d.st.slots {
		if !s.Retired {
			out = append(out, s.Name)
		}
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "f")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		cfg     Config
		wantErr string
	}{
		{"ok", Config{Interval: time.Second}, ""},
		{"zero interval", Config{}, "interval must be positive"},
		{"negative interval", Config{Interval: -time.Second}, "interval must be positive"},
		{"negative backoff", Config{Interval: time.Second, MaxBackoff: -1}, "must not be negative"},
		{"long socket", Config{Interval: time.Second, SocketPath: strings.Repeat("x", 101)}, "sun_path"},
		{"missing watch dir", Config{Interval: time.Second, WatchDir: filepath.Join(dir, "gone")}, "watch dir"},
		{"watch dir is a file", Config{Interval: time.Second, WatchDir: file}, "not a directory"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
			}
		})
	}
}

func TestConfigRejectsNonCrashChaos(t *testing.T) {
	plan := parseChaos(t, "overload:nf-server-0@0.1sx4")
	cfg := Config{Interval: time.Second, ChaosPlan: plan}
	if err := cfg.validate(); err == nil || !strings.Contains(err.Error(), "only crash events") {
		t.Fatalf("want crash-only rejection, got %v", err)
	}
}

// TestReconcileIdempotent pins the idempotence property: reconciling twice
// with no spec change is a no-op — the placement Result pointer does not
// change and no apply is counted.
func TestReconcileIdempotent(t *testing.T) {
	d, _ := newTestDaemon(t, nil)
	if _, err := d.SetSpec(specDoc(t, []string{"alpha", "beta"}), "test"); err != nil {
		t.Fatal(err)
	}
	rr := d.Tick()
	if !rr.Converged || len(rr.Admitted) != 2 {
		t.Fatalf("first tick: want converged with 2 admits, got %+v", rr)
	}
	d.mu.Lock()
	res1 := d.st.res
	d.mu.Unlock()
	applies := d.CountersSnapshot().Applies

	for i := 0; i < 3; i++ {
		rr = d.Tick()
		if !rr.Converged || rr.Err != "" || len(rr.Admitted)+len(rr.Retired)+len(rr.Replaced) != 0 {
			t.Fatalf("no-change tick %d mutated: %+v", i, rr)
		}
	}
	d.mu.Lock()
	res2 := d.st.res
	d.mu.Unlock()
	if res1 != res2 {
		t.Fatal("no-change reconcile replaced the placement Result")
	}
	if got := d.CountersSnapshot().Applies; got != applies {
		t.Fatalf("no-change reconcile counted applies: %d -> %d", applies, got)
	}
}

// TestRejectedSpecIsolation pins the validate-before-apply property: a bad
// spec is rejected without touching desired state, actual state, or the
// generation — for every rejection class.
func TestRejectedSpecIsolation(t *testing.T) {
	d, _ := newTestDaemon(t, nil)
	good := specDoc(t, []string{"alpha"})
	if _, err := d.SetSpec(good, "test"); err != nil {
		t.Fatal(err)
	}
	if rr := d.Tick(); !rr.Converged {
		t.Fatalf("good spec did not apply: %+v", rr)
	}
	d.mu.Lock()
	res1, gen1 := d.st.res, d.generation
	d.mu.Unlock()

	hwChange, _ := json.Marshal(&Spec{Chains: chainText("alpha", 2), Hardware: HardwareSpec{Servers: 3}, Placement: PlacementSpec{HeadroomCores: 4}})
	bad := map[string][]byte{
		"not json":          []byte("shrug"),
		"unknown field":     []byte(`{"chains": "", "bogus": 1}`),
		"trailing data":     append(append([]byte(nil), good...), []byte(" {}")...),
		"no chains":         []byte(`{"chains": ""}`),
		"bad chain text":    []byte(`{"chains": "chain x {"}`),
		"duplicate chains":  []byte(fmt.Sprintf(`{"chains": %q}`, chainText("alpha", 2)+chainText("alpha", 2))),
		"unknown scheme":    []byte(fmt.Sprintf(`{"chains": %q, "placement": {"scheme": "Wat"}}`, chainText("alpha", 2))),
		"negative headroom": []byte(fmt.Sprintf(`{"chains": %q, "placement": {"headroom_cores": -1}}`, chainText("alpha", 2))),
		"negative servers":  []byte(fmt.Sprintf(`{"chains": %q, "hardware": {"servers": -2}}`, chainText("alpha", 2))),
		"unknown dead node": []byte(fmt.Sprintf(`{"chains": %q, "failed_nodes": ["nf-server-9"]}`, chainText("alpha", 2))),
		"hardware change":   hwChange,
	}
	rejected := d.CountersSnapshot().RejectedSpecs
	for name, raw := range bad {
		if _, err := d.SetSpec(raw, name); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		rr := d.Tick()
		if !rr.Converged || rr.Err != "" {
			t.Fatalf("%s: rejection perturbed the loop: %+v", name, rr)
		}
		d.mu.Lock()
		resNow, genNow := d.st.res, d.generation
		d.mu.Unlock()
		if resNow != res1 || genNow != gen1 {
			t.Fatalf("%s: rejection perturbed state (gen %d -> %d)", name, gen1, genNow)
		}
	}
	if got := d.CountersSnapshot().RejectedSpecs; got != rejected+uint64(len(bad)) {
		t.Fatalf("rejected-spec counter: want +%d, got %d -> %d", len(bad), rejected, got)
	}
}

// TestConvergenceRandomSequences pins the convergence property: any
// sequence of valid spec files ends with desired == actual.
func TestConvergenceRandomSequences(t *testing.T) {
	pool := []string{"alpha", "beta", "gamma", "delta"}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			d, _ := newTestDaemon(t, func(c *Config) { c.AllowRepack = true })
			for step := 0; step < 8; step++ {
				var names []string
				for _, n := range pool {
					if rng.Intn(2) == 1 {
						names = append(names, n)
					}
				}
				if len(names) == 0 {
					names = []string{pool[rng.Intn(len(pool))]}
				}
				if _, err := d.SetSpec(specDoc(t, names), "test"); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				rr := d.Tick()
				if !rr.Converged || rr.Err != "" {
					t.Fatalf("step %d (%v): did not converge: %+v", step, names, rr)
				}
				got := activeNames(d)
				want := map[string]bool{}
				for _, n := range names {
					want[n] = true
				}
				if len(got) != len(names) {
					t.Fatalf("step %d: want %v active, got %v", step, names, got)
				}
				for _, n := range got {
					if !want[n] {
						t.Fatalf("step %d: unexpected active chain %s (want %v)", step, n, got)
					}
				}
			}
		})
	}
}

// TestChainRedefinitionReadmits: changing a chain's definition under the
// same name retires the old slot and re-admits into a fresh one.
func TestChainRedefinitionReadmits(t *testing.T) {
	d, _ := newTestDaemon(t, nil)
	if _, err := d.SetSpec(specDoc(t, []string{"alpha", "beta"}), "test"); err != nil {
		t.Fatal(err)
	}
	if rr := d.Tick(); !rr.Converged {
		t.Fatalf("initial apply failed: %+v", rr)
	}

	redefined, err := json.Marshal(&Spec{
		Chains:    chainText("alpha", 3) + chainText("beta", 2),
		Hardware:  HardwareSpec{Servers: 2},
		Placement: PlacementSpec{HeadroomCores: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.SetSpec(redefined, "test"); err != nil {
		t.Fatal(err)
	}
	rr := d.Tick()
	if !rr.Converged {
		t.Fatalf("redefinition did not converge: %+v", rr)
	}
	if len(rr.Retired) != 1 || rr.Retired[0] != "alpha" || len(rr.Admitted) != 1 || rr.Admitted[0] != "alpha" {
		t.Fatalf("want alpha retired+readmitted, got %+v", rr)
	}
	st := d.StatusSnapshot()
	for _, c := range st.Chains {
		if c.Name == "alpha" && c.Slot != 2 {
			t.Fatalf("redefined alpha should occupy fresh slot 2, got %d", c.Slot)
		}
	}
}

// TestBackoffPacing: a transiently-infeasible desired state puts the loop
// into exponential backoff (no retry until the deadline), and a superseding
// spec retries immediately and converges.
func TestBackoffPacing(t *testing.T) {
	d, clk := newTestDaemon(t, nil)
	if _, err := d.SetSpec(specDoc(t, []string{"alpha"}), "test"); err != nil {
		t.Fatal(err)
	}
	if rr := d.Tick(); !rr.Converged {
		t.Fatalf("initial apply failed: %+v", rr)
	}

	// An admission no rack can host: tmin far beyond capacity.
	huge, _ := json.Marshal(&Spec{
		Chains:    chainText("alpha", 2) + strings.Replace(chainText("beta", 2), "tmin = 2Gbps  tmax = 100Gbps", "tmin = 900Gbps  tmax = 990Gbps", 1),
		Hardware:  HardwareSpec{Servers: 2},
		Placement: PlacementSpec{HeadroomCores: 4},
	})
	if _, err := d.SetSpec(huge, "test"); err != nil {
		t.Fatal(err)
	}
	rr := d.Tick()
	if rr.Converged || rr.Err == "" || rr.BackoffUntil.IsZero() {
		t.Fatalf("want transient failure with backoff, got %+v", rr)
	}
	retries0 := d.CountersSnapshot().BackoffRetries

	// Before the deadline: the gate holds, no retry.
	if rr2 := d.Tick(); d.CountersSnapshot().BackoffRetries != retries0 || rr2.Err == "" {
		t.Fatalf("backoff gate retried early: %+v", rr2)
	}
	// Past the deadline: one retry, failing again, doubling the delay.
	clk.Advance(rr.BackoffUntil.Sub(clk.Now()) + time.Millisecond)
	rr3 := d.Tick()
	if d.CountersSnapshot().BackoffRetries != retries0+1 || rr3.Err == "" {
		t.Fatalf("want one counted retry, got %+v", rr3)
	}
	if !rr3.BackoffUntil.After(rr.BackoffUntil) {
		t.Fatal("backoff deadline did not move forward")
	}

	// A new generation supersedes the backoff immediately.
	if _, err := d.SetSpec(specDoc(t, []string{"alpha", "beta"}), "test"); err != nil {
		t.Fatal(err)
	}
	if rr4 := d.Tick(); !rr4.Converged || rr4.Err != "" {
		t.Fatalf("superseding spec did not converge: %+v", rr4)
	}
	if !d.Converged() {
		t.Fatal("daemon not converged after recovery")
	}
}

// TestInjectedFailureReplaces: declaring a server dead moves its chains to
// the survivor in the next pass and records the applied failure.
func TestInjectedFailureReplaces(t *testing.T) {
	d, _ := newTestDaemon(t, nil)
	if _, err := d.SetSpec(specDoc(t, []string{"alpha", "beta"}), "test"); err != nil {
		t.Fatal(err)
	}
	if rr := d.Tick(); !rr.Converged {
		t.Fatalf("initial apply failed: %+v", rr)
	}
	if err := d.InjectFailures([]string{"nf-server-1"}); err != nil {
		t.Fatal(err)
	}
	rr := d.Tick()
	if !rr.Converged || len(rr.Replaced) != 1 || rr.Replaced[0] != "nf-server-1" {
		t.Fatalf("want nf-server-1 replaced, got %+v", rr)
	}
	st := d.StatusSnapshot()
	if len(st.FailedNodes) == 0 {
		t.Fatal("status reports no failed nodes")
	}
	for _, c := range st.Chains {
		for _, srv := range c.Servers {
			if srv == "nf-server-1" {
				t.Fatalf("chain %s still on the dead server", c.Name)
			}
		}
		if !c.SLOMet {
			t.Fatalf("chain %s SLO not met after failover: %+v", c.Name, c)
		}
	}
	// Idempotent thereafter.
	if rr2 := d.Tick(); !rr2.Converged || len(rr2.Replaced) != 0 {
		t.Fatalf("failure handling not idempotent: %+v", rr2)
	}
	if err := d.InjectFailures([]string{"nf-server-9"}); err == nil {
		t.Fatal("unknown device accepted")
	}
}

// TestFreeCoresMatchHeadroom: the headroom gauge's one-pass total is the
// status table's Free summed over the servers that did not fail — on a full
// rack, after a failure, and after a retirement leaves a slot behind.
func TestFreeCoresMatchHeadroom(t *testing.T) {
	d, _ := newTestDaemon(t, nil)
	check := func(when string) {
		t.Helper()
		d.mu.Lock()
		defer d.mu.Unlock()
		want := 0
		for _, h := range d.headroomLocked() {
			if !h.Failed {
				want += h.Free
			}
		}
		if got := d.freeCoresLocked(); got != want {
			t.Fatalf("%s: %d free cores, the headroom table sums to %d", when, got, want)
		}
	}
	steps := []struct {
		when string
		do   func() error
	}{
		{"initial", func() error { _, err := d.SetSpec(specDoc(t, []string{"alpha", "beta", "gamma"}), "test"); return err }},
		{"failure", func() error { return d.InjectFailures([]string{"nf-server-1"}) }},
		{"retirement", func() error { _, err := d.SetSpec(specDoc(t, []string{"alpha", "gamma"}), "test"); return err }},
	}
	for _, s := range steps {
		if err := s.do(); err != nil {
			t.Fatalf("%s: %v", s.when, err)
		}
		if rr := d.Tick(); !rr.Converged {
			t.Fatalf("%s did not converge: %+v", s.when, rr)
		}
		check(s.when)
	}
}

// TestSnapshotRoundTrip pins crash-safety: a daemon restarted on its
// snapshot resumes the identical placement — same slots, same headroom,
// same failed set — without being re-fed any spec.
func TestSnapshotRoundTrip(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "lemurd.snap")
	mut := func(c *Config) { c.SnapshotPath = snap }

	d1, _ := newTestDaemon(t, mut)
	if _, err := d1.SetSpec(specDoc(t, []string{"alpha"}), "test"); err != nil {
		t.Fatal(err)
	}
	d1.Tick()
	if _, err := d1.SetSpec(specDoc(t, []string{"alpha", "beta"}), "test"); err != nil {
		t.Fatal(err)
	}
	d1.Tick()
	if err := d1.InjectFailures([]string{"nf-server-0"}); err != nil {
		t.Fatal(err)
	}
	if rr := d1.Tick(); !rr.Converged {
		t.Fatalf("pre-crash state not converged: %+v", rr)
	}
	want := stateFingerprint(t, d1)

	d2, _ := newTestDaemon(t, mut)
	if got := stateFingerprint(t, d2); got != want {
		t.Fatalf("restart did not resume the placement:\n want %s\n got  %s", want, got)
	}
	if d2.Generation() != d1.Generation() {
		t.Fatalf("generation: want %d, got %d", d1.Generation(), d2.Generation())
	}
	// The restarted daemon keeps reconciling as if nothing happened.
	if rr := d2.Tick(); !rr.Converged || rr.Err != "" {
		t.Fatalf("restarted daemon not idempotent: %+v", rr)
	}
}

// TestSnapshotCorruptionRejected: a complete line that does not decode fails
// startup loudly instead of silently re-placing from scratch. (A last line
// without its newline is a torn append, not corruption: snapshot_test.go.)
func TestSnapshotCorruptionRejected(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "lemurd.snap")
	if err := os.WriteFile(snap, []byte(`{"kind":"spec","spec":{`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{Interval: time.Second, SnapshotPath: snap, Clock: NewFakeClock(time.Unix(0, 0))})
	if err == nil || !strings.Contains(err.Error(), "snapshot") {
		t.Fatalf("want snapshot error, got %v", err)
	}
}

// stateFingerprint renders the placement-relevant status (chains, headroom,
// failed nodes, applied generation) for cross-restart comparison.
func stateFingerprint(t *testing.T, d *Daemon) string {
	t.Helper()
	st := d.StatusSnapshot()
	b, err := json.Marshal(struct {
		AppliedGeneration int64
		Chains            []ChainStatus
		Headroom          []ServerHeadroom
		FailedNodes       []string
	}{st.AppliedGeneration, st.Chains, st.Headroom, st.FailedNodes})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWatchDir: files drive the desired state in filename order, changes
// are content-hash detected, and a bad file is counted once per version.
func TestWatchDir(t *testing.T) {
	dir := t.TempDir()
	d, _ := newTestDaemon(t, func(c *Config) { c.WatchDir = dir })

	writeFile := func(name string, raw []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile("10-base.json", specDoc(t, []string{"alpha"}))
	if rr := d.Tick(); !rr.Converged || len(rr.Admitted) != 1 {
		t.Fatalf("watch apply failed: %+v", rr)
	}
	// Unchanged content: no new generation.
	gen := d.Generation()
	d.Tick()
	if d.Generation() != gen {
		t.Fatal("unchanged file bumped the generation")
	}
	// Changed content applies; later filenames win over earlier ones.
	writeFile("20-grow.json", specDoc(t, []string{"alpha", "beta"}))
	if rr := d.Tick(); !rr.Converged || len(activeNames(d)) != 2 {
		t.Fatalf("changed file did not apply: %+v", rr)
	}
	// A bad file is rejected exactly once per content version.
	writeFile("30-bad.json", []byte("not a spec"))
	d.Tick()
	rej := d.CountersSnapshot().RejectedSpecs
	d.Tick()
	if got := d.CountersSnapshot().RejectedSpecs; got != rej {
		t.Fatalf("bad file re-rejected every tick: %d -> %d", rej, got)
	}
}

// TestFakeClockOrdering: Advance fires timers in deadline order and
// BlockUntil rendezvouses with pending registrations.
func TestFakeClockOrdering(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	a := clk.After(2 * time.Second)
	b := clk.After(time.Second)
	done := make(chan struct{})
	go func() {
		clk.BlockUntil(2)
		clk.Advance(3 * time.Second)
		close(done)
	}()
	<-done
	select {
	case <-a:
	default:
		t.Fatal("2s timer did not fire after Advance(3s)")
	}
	select {
	case <-b:
	default:
		t.Fatal("1s timer did not fire after Advance(3s)")
	}
	if got := clk.Now(); got != time.Unix(3, 0) {
		t.Fatalf("Now: want 3s, got %v", got)
	}
}

// Converged reports whether the last reconcile pass left actual state equal
// to desired state with no pending failures or backoff.
func (d *Daemon) Converged() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.converged
}

// BlockUntil waits until at least n timers are registered and pending. Tests
// use it to rendezvous with the daemon's run loop before calling Advance, so
// an Advance can never race past a not-yet-registered sleep.
func (c *FakeClock) BlockUntil(n int) {
	for {
		c.mu.Lock()
		waiting := len(c.timers)
		c.mu.Unlock()
		if waiting >= n {
			return
		}
		time.Sleep(50 * time.Microsecond)
	}
}
