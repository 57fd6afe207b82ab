// Package daemon implements lemurd's control plane: a long-running,
// level-triggered reconcile loop that owns one cross-platform NF deployment
// and continuously drives actual state toward a desired-state Spec (chain
// specs + hardware config + placement knobs).
//
// The loop is modeled on production controllers (metallb-style): every pass
// re-derives the full diff between desired and actual from scratch — there
// is no event queue to lose — and applies it as one delta (chains to retire,
// chains to admit, the cumulative failure set) through the one incremental
// door: placer.Reconfigure, with Deployment.Apply keeping the running
// deployment's switch tables, pipelines, and SmartNIC programs in lockstep.
//
// Invariants (property-tested in daemon_test.go):
//
//   - Validate-before-apply: a spec is fully validated before it becomes
//     desired state; a rejected spec never perturbs the running deployment.
//   - Idempotence: reconciling twice with no spec change is a no-op — the
//     placement Result pointer does not change.
//   - Convergence: any sequence of valid, feasible spec files ends with
//     desired == actual.
//   - Crash-safety: every accepted spec and applied failure is appended to
//     an fsynced snapshot log; a restarted daemon restores the log's
//     checkpoint and replays the entries after it through the same code
//     paths, reconciling where the live daemon did, and resumes the
//     identical placement (placement is deterministic, so replay is exact).
//     The daemon compacts the log into one checkpoint of its applied state
//     whenever the entries after the last checkpoint outgrow it, so a
//     restart replays a bounded tail, not the daemon's history.
//   - Determinism under a fake clock: with Config.Clock set to a FakeClock,
//     every reconcile outcome, backoff deadline, and chaos fire time is a
//     pure function of the inputs.
package daemon

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"lemur/internal/chaos"
	"lemur/internal/hw"
	"lemur/internal/metacompiler"
	"lemur/internal/obs"
	"lemur/internal/placer"
	"lemur/internal/profile"
)

// Reconcile-loop observability: exported continuously via the daemon's
// /metrics endpoint (Prometheus text format) rather than once at exit.
var (
	mReconciles     = obs.C("lemurd_reconciles_total")
	mApplies        = obs.C("lemurd_applies_total")
	mApplyLatency   = obs.H("lemurd_apply_latency_seconds")
	mRejectedSpecs  = obs.C("lemurd_rejected_specs_total")
	mBackoffRetries = obs.C("lemurd_backoff_retries_total")
	mReconcileErrs  = obs.C("lemurd_reconcile_errors_total")
	gDesiredChains  = obs.G("lemurd_desired_chains")
	gActualChains   = obs.G("lemurd_actual_chains")
	gGeneration     = obs.G("lemurd_generation")
	gAppliedGen     = obs.G("lemurd_applied_generation")
	gConverged      = obs.G("lemurd_converged")
	gFailedNodes    = obs.G("lemurd_failed_nodes")
	gHeadroomFree   = obs.G("lemurd_headroom_free_cores")
)

// DefaultMaxBackoff caps the exponential retry backoff on transient apply
// failures (e.g. an admission the placer answers infeasible) when
// Config.MaxBackoff is zero.
const DefaultMaxBackoff = 10 * time.Second

// Config configures a Daemon. SocketPath/WatchDir/SnapshotPath may all be
// empty for a purely programmatic daemon (the reconcile-sweep benchmark
// drives SetSpec directly).
type Config struct {
	// SocketPath is the unix control socket cmd/lemurd serves the JSON API
	// on (spec apply, status, metrics). The daemon package itself only
	// validates it; listening is the caller's job (Handler serves any
	// listener). Unix socket paths are limited to ~100 bytes.
	SocketPath string
	// WatchDir, when set, is polled every Interval for *.json desired-state
	// documents; any file whose content changed is validated and, if valid,
	// becomes the new desired state (files apply in filename order, so with
	// several changed files the lexicographically last valid one wins).
	WatchDir string
	// SnapshotPath, when set, is the crash-safe apply-log file: every
	// accepted spec and applied failure set is appended as one line and
	// fsynced, and a restarting daemon replays it through the reconcile
	// path to resume the identical placement. The daemon rewrites it as one
	// checkpoint of its applied state whenever the lines after the last
	// checkpoint outgrow it, so the file and the replay stay bounded by
	// live state.
	SnapshotPath string
	// Interval is the reconcile period (and the WatchDir poll period).
	// Must be positive.
	Interval time.Duration
	// MaxBackoff caps the exponential retry backoff after transient apply
	// failures. 0 means DefaultMaxBackoff; must not be negative.
	MaxBackoff time.Duration
	// ChaosPlan optionally schedules node crashes relative to daemon start
	// (chaos grammar, e.g. "crash:nf-server-1@0.3s" parsed by chaos.Parse).
	// Only Crash events are allowed — degrade/overload are dataplane-side
	// faults the control plane does not model. Fired crashes are injected
	// as failures exactly as POST /v1/fail would.
	ChaosPlan *chaos.Plan
	// AllowRepack lets the loop apply a full-repack admission verdict by
	// recompiling and redeploying every chain (disruptive: all dataplane
	// state moves). Default false records the verdict and backs off,
	// leaving the repack decision to the operator. Repacks are refused
	// while any node failure has been applied (a repack would re-place
	// onto hardware the daemon knows is dead).
	AllowRepack bool
	// Clock abstracts time; nil means realClock. Tests and the
	// reconcile-latency benchmark wire a FakeClock for determinism.
	Clock Clock
	// TickNotify, when non-nil, receives every Tick's result; Run blocks on
	// the send, which lets a test drive the loop in lockstep with a
	// FakeClock. Leave nil in production.
	TickNotify chan<- *ReconcileResult
}

// validate rejects malformed configurations. It is the table-driven-tested
// counterpart of cmd/lemurd's flag validation.
func (c *Config) validate() error {
	if c.Interval <= 0 {
		return fmt.Errorf("daemon: reconcile interval must be positive, got %v", c.Interval)
	}
	if c.MaxBackoff < 0 {
		return fmt.Errorf("daemon: max backoff must not be negative, got %v", c.MaxBackoff)
	}
	if len(c.SocketPath) > 100 {
		return fmt.Errorf("daemon: socket path exceeds the unix sun_path limit (%d > 100 bytes)", len(c.SocketPath))
	}
	if c.ChaosPlan != nil {
		for _, ev := range c.ChaosPlan.Events {
			if ev.Kind != chaos.Crash {
				return fmt.Errorf("daemon: chaos plan event %q: only crash events are supported by the control plane", ev.String())
			}
		}
	}
	if c.WatchDir != "" {
		fi, err := os.Stat(c.WatchDir)
		if err != nil {
			return fmt.Errorf("daemon: watch dir: %w", err)
		}
		if !fi.IsDir() {
			return fmt.Errorf("daemon: watch dir %s is not a directory", c.WatchDir)
		}
	}
	return nil
}

// slotState is one chain slot of the running deployment. Slot index is the
// chain's position in the placer input (and thus its SPI range); slots are
// append-only and never reused, so a retired slot keeps its name for the
// audit trail.
type slotState struct {
	// Name is the chain's spec name; FP its content fingerprint.
	Name string
	FP   string
	// Retired marks a slot whose chain has been retired.
	Retired bool
}

// actualState is the daemon's view of the running deployment.
type actualState struct {
	topo  *hw.Topology
	in    *placer.Input
	res   *placer.Result
	dep   *metacompiler.Deployment
	slots []slotState
	// handled holds raw (operator-given) names of failures already driven
	// through placer.Reconfigure; dead is the cumulative expanded NodeSet
	// (failed servers plus SmartNICs they host).
	handled map[string]bool
	dead    placer.NodeSet
	hwKey   string
}

// backoffState tracks the retry schedule after a transient apply failure.
type backoffState struct {
	// active reports a pending retry; until is the earliest next attempt.
	active bool
	until  time.Time
	// failures counts consecutive failed attempts (drives the exponential).
	failures int
	// gen and failKey snapshot the inputs that failed, so any change —
	// a new spec generation or a new failure — retries immediately.
	gen     int64
	failKey string
	lastErr string
}

// Counters are the daemon's own reconcile-loop counters. They mirror the
// lemurd_* obs metrics but are tracked per Daemon instance, so in-process
// fleets (the reconcile sweep runs many daemons concurrently) report
// deterministic per-instance numbers.
type Counters struct {
	// Reconciles counts level-triggered passes; Applies counts passes that
	// changed the running deployment.
	Reconciles uint64 `json:"reconciles"`
	Applies    uint64 `json:"applies"`
	// RejectedSpecs counts desired-state documents that failed validation;
	// BackoffRetries counts re-attempts after a transient apply failure.
	RejectedSpecs  uint64 `json:"rejected_specs"`
	BackoffRetries uint64 `json:"backoff_retries"`
	// Errors counts passes that ended in a transient failure.
	Errors uint64 `json:"errors"`
}

// Daemon is one lemurd control-plane instance: desired state, actual state,
// and the reconcile loop between them. All exported methods are safe for
// concurrent use (the HTTP API and the run loop share the instance).
type Daemon struct {
	cfg   Config
	clock Clock
	start time.Time

	mu         sync.Mutex
	desired    *validSpec
	generation int64
	appliedGen int64
	converged  bool
	lastReject string
	lastErr    string
	injected   []string // injected failure names, in arrival order, deduped
	chaosNext  int
	st         *actualState
	backoff    backoffState
	counters   Counters
	watchSeen  map[string]string
	replaying  bool

	// snapErr is the last failed snapshot append, checkpoint or compaction.
	// It is kept apart from lastErr, which every successful reconcile pass
	// clears; only a later successful append or compaction clears it.
	snapErr string

	// passed reports that a reconcile pass which attempted an apply has
	// completed since the last appended snapshot entry (true before the
	// first: there is nothing to batch with). See snapEntry.Batched.
	passed bool
	// log tracks the snapshot file against the compaction rule; fs is the
	// file system compactions write through.
	log snapLog
	fs  logFS
}

// New builds a daemon from a validated config and, when SnapshotPath names
// an existing snapshot, replays it so the daemon resumes its previous
// placement instead of starting empty.
func New(cfg Config) (*Daemon, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.MaxBackoff == 0 {
		cfg.MaxBackoff = DefaultMaxBackoff
	}
	clk := cfg.Clock
	if clk == nil {
		clk = realClock{}
	}
	if cfg.ChaosPlan != nil {
		cfg.ChaosPlan.Normalize()
	}
	d := &Daemon{
		cfg:       cfg,
		clock:     clk,
		start:     clk.Now(),
		watchSeen: map[string]string{},
		passed:    true,
		fs:        osFS{},
	}
	if cfg.SnapshotPath != "" {
		if err := d.loadSnapshot(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Generation returns the latest accepted desired-state generation (0 before
// the first accepted spec).
func (d *Daemon) Generation() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.generation
}

// CountersSnapshot returns a copy of the per-instance reconcile counters.
func (d *Daemon) CountersSnapshot() Counters {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.counters
}

// SetSpec validates a desired-state document and, if valid, makes it the
// desired state and bumps the generation. Validation never touches the
// running deployment: a rejected spec leaves desired state, actual state,
// and the generation exactly as they were (the rejected-spec-isolation
// property test pins this). source labels the origin ("api", "file:x.json")
// in error messages and the rejection log.
//
// The parse reuses the current desired state's parse of every unchanged
// chain. A reused graph is one the desired state holds, so it runs in at
// most one slot; a spec accepted while this one parsed makes it parse again
// against that one.
func (d *Daemon) SetSpec(raw []byte, source string) (int64, error) {
	d.mu.Lock()
	prev := d.desired
	d.mu.Unlock()
	vs, err := parseSpec(raw, prev)
	d.mu.Lock()
	defer d.mu.Unlock()
	if err == nil && d.desired != prev {
		vs, err = parseSpec(raw, d.desired)
	}
	if err == nil {
		err = d.checkImmutableLocked(vs)
	}
	if err != nil {
		d.counters.RejectedSpecs++
		mRejectedSpecs.Inc()
		d.lastReject = fmt.Sprintf("%s: %v", source, err)
		return 0, err
	}
	d.desired = vs
	d.generation++
	gGeneration.Set(float64(d.generation))
	gDesiredChains.Set(float64(len(vs.graphs)))
	// A new generation supersedes any backoff from the previous one.
	d.backoff = backoffState{}
	if !d.replaying {
		d.appendSnapshotLocked(snapEntry{Kind: snapSpec, Spec: vs.raw})
		d.compactLocked()
	}
	return d.generation, nil
}

// checkImmutableLocked rejects a spec that changes the hardware or placement
// configuration after the first apply.
func (d *Daemon) checkImmutableLocked(vs *validSpec) error {
	if d.st != nil && hardwareKey(vs.spec) != d.st.hwKey {
		return fmt.Errorf("daemon: hardware/placement config is immutable after the first apply (have %q, spec wants %q) — restart the daemon to re-rack",
			d.st.hwKey, hardwareKey(vs.spec))
	}
	return nil
}

// InjectFailures declares the named devices dead, as the chaos plan and the
// POST /v1/fail endpoint do. Names must exist in the desired (or applied)
// topology. The next reconcile pass drives placer.Reconfigure to move affected
// chains off them; failures are cumulative for the daemon's lifetime.
func (d *Daemon) InjectFailures(nodes []string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.injectLocked(nodes)
}

func (d *Daemon) injectLocked(nodes []string) error {
	topo := d.topoLocked()
	if topo == nil {
		return fmt.Errorf("daemon: cannot inject failures before a spec is accepted")
	}
	known := map[string]bool{}
	for _, srv := range topo.Servers {
		known[srv.Name] = true
	}
	for _, nic := range topo.SmartNICs {
		known[nic.Name] = true
	}
	for _, n := range nodes {
		if !known[n] {
			return fmt.Errorf("daemon: failure names unknown device %q", n)
		}
	}
	have := map[string]bool{}
	for _, n := range d.injected {
		have[n] = true
	}
	for _, n := range nodes {
		if !have[n] {
			d.injected = append(d.injected, n)
			have[n] = true
		}
	}
	return nil
}

// topoLocked returns the topology of the applied state, falling back to the
// desired spec's, or nil before any spec.
func (d *Daemon) topoLocked() *hw.Topology {
	if d.st != nil {
		return d.st.topo
	}
	if d.desired != nil {
		return d.desired.topo
	}
	return nil
}

// elapsedSec is the simulated/real time since daemon start in seconds.
func (d *Daemon) elapsedSec(now time.Time) float64 {
	return now.Sub(d.start).Seconds()
}

// fireChaosLocked injects crash events whose fire time has passed.
func (d *Daemon) fireChaosLocked(now time.Time) []string {
	if d.cfg.ChaosPlan == nil {
		return nil
	}
	var fired []string
	el := d.elapsedSec(now)
	evs := d.cfg.ChaosPlan.Events
	for d.chaosNext < len(evs) && evs[d.chaosNext].AtSec <= el+1e-12 {
		ev := evs[d.chaosNext]
		d.chaosNext++
		if err := d.injectLocked([]string{ev.Target}); err == nil {
			fired = append(fired, ev.Target)
		}
	}
	return fired
}

// failKeyLocked renders the current failure target set for backoff
// staleness comparison.
func (d *Daemon) failKeyLocked() string {
	target := d.targetFailuresLocked()
	sort.Strings(target)
	key := ""
	for _, n := range target {
		key += n + ","
	}
	return key
}

// targetFailuresLocked is the union of spec-declared and injected failure
// names (raw, unexpanded, deduplicated; order: spec order then injection
// order).
func (d *Daemon) targetFailuresLocked() []string {
	var out []string
	have := map[string]bool{}
	if d.desired != nil {
		for _, n := range d.desired.spec.FailedNodes {
			if !have[n] {
				out = append(out, n)
				have[n] = true
			}
		}
	}
	for _, n := range d.injected {
		if !have[n] {
			out = append(out, n)
			have[n] = true
		}
	}
	return out
}

// defaultDB returns the profile database every daemon placement uses.
func defaultDB() *profile.DB { return profile.DefaultDB() }
