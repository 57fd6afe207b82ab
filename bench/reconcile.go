package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"lemur/internal/daemon"
	"lemur/internal/experiments"
	"lemur/internal/hw"
	"lemur/internal/metacompiler"
	"lemur/internal/nfgraph"
	"lemur/internal/placer"
	"lemur/internal/profile"
)

const (
	// episodeOps is how many operator ops one episode drives through one
	// daemon. Op latency grows with the op log (about 1 ms at op 0, 5 ms at
	// op 200, 40 ms at op 1200), so an episode is a fixed length and the run
	// repeats whole episodes: a faster build then does more episodes, not
	// later ops. 200 ops keep an episode near one second, so that a run
	// holds about ten.
	episodeOps = 200
	// reconServers is the daemon's rack.
	reconServers = 16
	// maxLive bounds the chains alive at once; maxFailures the servers an
	// episode kills (a dead server never returns within a daemon's life).
	maxLive, minLive, maxFailures = 12, 2, 3
	// statusEvery is the open-loop status reader's period.
	statusEvery = 2 * time.Millisecond
	reconTick   = time.Second
)

// reconOp is one operator action, rendered at set-up so that the timed
// section is the daemon's work alone.
type reconOp struct {
	kind  string   // admit, retire, redefine, fail, reject
	spec  []byte   // the desired-state document to submit (admit, retire, redefine, reject)
	nodes []string // fail
}

type reconWorkload struct {
	// opsPerEpisode overrides episodeOps when positive (the smoke test).
	opsPerEpisode int

	dir      string
	base     []byte
	ops      []reconOp
	episodes int
	last     episodeStats
}

// episodeStats is what the traced pass reports from an episode.
type episodeStats struct {
	setSpecMs, tickMs  []float64
	statusMs, lateMs   []float64
	snapshotBytes      int64
	replayMs           float64
	firstDecile, lastD float64
}

// reconChain is a cheap two-NF chain on an aggregate of its own.
func reconChain(id, tminMbps int) string {
	return fmt.Sprintf(`
chain c%d {
  slo { tmin = %dMbps  tmax = 100Gbps }
  aggregate { src = 10.%d.0.0/16 }
  mon0 = Monitor()
  fwd0 = IPv4Fwd()
  mon0 -> fwd0
}`, id, tminMbps, id%250)
}

// reconDoc renders the desired-state document for the live chains
// (id -> t_min in Mbps).
func reconDoc(live map[int]int) []byte {
	ids := make([]int, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = reconChain(id, live[id])
	}
	raw, err := json.Marshal(&daemon.Spec{
		Chains:    strings.Join(parts, "\n"),
		Hardware:  daemon.HardwareSpec{Servers: reconServers},
		Placement: daemon.PlacementSpec{HeadroomCores: 4, Parallel: 1},
	})
	if err != nil {
		panic(err) // a struct of strings and ints always marshals
	}
	return raw
}

// scriptShape seeds the part of the op script that every run shares.
const scriptShape = 11

// script renders an episode's op sequence. Its shape is the same for every
// seed: which kind of op comes when, and so how many chains are alive at
// each op (about half admits, a third retires, a sixth t_min redefinitions,
// maxFailures server failures, one malformed document per hundred ops). The
// seed decides what the ops hit: which chain is retired or redefined and by
// how much, and which servers die. Op cost depends mostly on the number of
// chains and slots, so runs with different seeds measure the same amount of
// work on different inputs.
func script(seed int64, n int) (base []byte, ops []reconOp) {
	shape := rand.New(rand.NewSource(scriptShape))
	rng := rand.New(rand.NewSource(seed))
	live := map[int]int{0: 500, 1: 500, 2: 500, 3: 500}
	base = reconDoc(live)
	next, failures := len(live), 0
	doomed := rng.Perm(reconServers)
	pick := func() int {
		ids := make([]int, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		return ids[rng.Intn(len(ids))]
	}
	for i := 0; i < n; i++ {
		r := shape.Float64()
		switch {
		case i%100 == 99:
			ops = append(ops, reconOp{kind: "reject", spec: []byte(`{"chains": "chain broken {"}`)})
		case r < 0.02 && failures < maxFailures:
			ops = append(ops, reconOp{kind: "fail", nodes: []string{fmt.Sprintf("nf-server-%d", doomed[failures])}})
			failures++
		case (r < 0.5 && len(live) < maxLive) || len(live) <= minLive:
			live[next] = 500
			next++
			ops = append(ops, reconOp{kind: "admit", spec: reconDoc(live)})
		case r < 0.85:
			delete(live, pick())
			ops = append(ops, reconOp{kind: "retire", spec: reconDoc(live)})
		default:
			live[pick()] += 50 + rng.Intn(101)
			ops = append(ops, reconOp{kind: "redefine", spec: reconDoc(live)})
		}
	}
	return base, ops
}

func (w *reconWorkload) setup(seed int64) error {
	n := episodeOps
	if w.opsPerEpisode > 0 {
		n = w.opsPerEpisode
	}
	w.base, w.ops = script(seed, n)
	if w.dir == "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(outDir, "reconcile-")
		if err != nil {
			return err
		}
		w.dir = dir
	}
	// Warm-up: half an episode, discarded.
	_, err := w.episode(w.ops[:n/2], nil)
	return err
}

func (w *reconWorkload) close() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

func (w *reconWorkload) rep() (repResult, error) {
	return w.episode(w.ops, nil)
}

// comparable strips what a restart legitimately changes from a status: the
// per-process counters and the text of the last rejected document, which
// the apply log does not carry.
func comparableStatus(st *daemon.Status) string {
	c := *st
	c.Counters = daemon.Counters{}
	c.LastRejectedSpec = ""
	raw, err := json.Marshal(&c)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	return string(raw)
}

// episode drives one fresh daemon through ops, one operator client in a
// closed loop, while a second goroutine reads the status in an open loop;
// then restarts the daemon from its snapshot.
func (w *reconWorkload) episode(ops []reconOp, tr *tracer) (repResult, error) {
	w.episodes++
	snap := fmt.Sprintf("%s/episode-%d.snap", w.dir, w.episodes)
	defer os.Remove(snap)
	clk := daemon.NewFakeClock(time.Unix(0, 0))
	cfg := daemon.Config{Interval: reconTick, Clock: clk, SnapshotPath: snap}
	d, err := daemon.New(cfg)
	if err != nil {
		return repResult{}, err
	}
	var r repResult
	var st episodeStats

	// timedOp runs submit then the reconcile tick, and times both.
	timedOp := func(kind string, submit func() error, wantReject bool) {
		r.attempted++
		t0 := time.Now()
		tr.begin("daemon.setspec")
		err := submit()
		tr.end()
		t1 := time.Now()
		clk.Advance(reconTick)
		tr.begin("daemon.tick")
		rr := d.Tick()
		tr.end()
		t2 := time.Now()
		r.opsMs = append(r.opsMs, float64(t2.Sub(t0).Nanoseconds())/1e6)
		st.setSpecMs = append(st.setSpecMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
		st.tickMs = append(st.tickMs, float64(t2.Sub(t1).Nanoseconds())/1e6)
		switch {
		case wantReject && err == nil:
			r.fail("op %d (%s): malformed document was accepted", r.attempted, kind)
		case !wantReject && err != nil:
			r.fail("op %d (%s): %v", r.attempted, kind, err)
		case !rr.Converged:
			r.fail("op %d (%s): tick did not converge: %s", r.attempted, kind, rr.Err)
		}
	}

	timedOp("base", func() error { _, err := d.SetSpec(w.base, "bench:base"); return err }, false)

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		st.statusMs, st.lateMs = readStatus(d, stop)
	}()
	for _, op := range ops {
		op := op
		switch op.kind {
		case "fail":
			timedOp(op.kind, func() error { return d.InjectFailures(op.nodes) }, false)
		default:
			timedOp(op.kind, func() error { _, err := d.SetSpec(op.spec, "bench:"+op.kind); return err }, op.kind == "reject")
		}
	}
	close(stop)
	reader.Wait()

	before := d.StatusSnapshot()
	if fi, err := os.Stat(snap); err == nil {
		st.snapshotBytes = fi.Size()
	}
	tr.begin("daemon.replay")
	t0 := time.Now()
	d2, err := daemon.New(cfg)
	st.replayMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	tr.end()
	r.attempted++
	if err != nil {
		r.fail("restart from the snapshot: %v", err)
	} else if got, want := comparableStatus(d2.StatusSnapshot()), comparableStatus(before); got != want {
		r.fail("status after the restart differs from the status before it")
	}

	r.work = float64(len(ops) + 1)
	met := 0
	for _, c := range before.Chains {
		r.gbps += c.RateBps / 1e9
		if c.SLOMet {
			met++
		}
	}
	if n := len(before.Chains); n > 0 {
		r.sloMet = float64(met) / float64(n)
	}
	r.digest = digestOf(comparableStatus(before))
	if n := len(r.opsMs) / 10; n > 0 {
		st.firstDecile, st.lastD = median(r.opsMs[:n]), median(r.opsMs[len(r.opsMs)-n:])
	}
	w.last = st
	return r, nil
}

// readStatus polls the status every statusEvery until stop closes. It is an
// open loop: polls are due on a fixed schedule whether or not the last one
// has returned, each is timed from the instant it was due, and how late the
// reader itself sent it is reported beside it.
func readStatus(d *daemon.Daemon, stop <-chan struct{}) (latMs, lateMs []float64) {
	due := time.Now()
	for {
		select {
		case <-stop:
			return latMs, lateMs
		default:
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lateMs = append(lateMs, float64(time.Since(due).Nanoseconds())/1e6)
		d.StatusSnapshot()
		latMs = append(latMs, float64(time.Since(due).Nanoseconds())/1e6)
		due = due.Add(statusEvery)
	}
}

// traced runs one episode untraced and one under spans, splits an op into
// its SetSpec and Tick halves, and times the placer and metacompiler calls
// the daemon makes inside a Tick on a deployment of the harness's own.
func (w *reconWorkload) traced(tr *tracer, out io.Writer) (map[string]float64, checks, error) {
	var c checks
	t0 := time.Now()
	plain, err := w.episode(w.ops, nil)
	if err != nil {
		return nil, c, err
	}
	plainWall := time.Since(t0)
	c.add(plain.checks)

	tr.begin("harness.episode")
	t0 = time.Now()
	spanned, err := w.episode(w.ops, tr)
	tracedWall := time.Since(t0)
	tr.end()
	if err != nil {
		return nil, c, err
	}
	c.add(spanned.checks)
	if spanned.digest != plain.digest {
		c.fail("traced episode's final status differs from the untraced episode's")
	}
	st := w.last
	statusP99, _ := tailPercentile(st.statusMs, 0.99)
	layers := map[string]float64{
		"trace.overhead_ratio":      tracedWall.Seconds() / plainWall.Seconds(),
		"daemon.setspec_ms":         median(st.setSpecMs),
		"daemon.tick_ms":            median(st.tickMs),
		"daemon.snapshot_bytes":     float64(st.snapshotBytes),
		"daemon.oplog_growth_ratio": st.lastD / st.firstDecile,
		"daemon.status_ms_p99":      statusP99,
		"daemon.status_late_ms":     median(st.lateMs),
		"daemon.replay_ms":          st.replayMs,
	}
	fmt.Fprintf(out, "status reader: %d polls, one every %v\n", len(st.statusMs), statusEvery)

	noop, err := noopTickUs(w.base, tr)
	if err != nil {
		return nil, c, err
	}
	layers["daemon.tick_noop_us"] = noop

	tr.begin("harness.reconfigure")
	err = reconfigure(tr)
	tr.end()
	if err != nil {
		return nil, c, err
	}
	med := spanMedians(tr)
	for _, l := range []string{"placer.replace", "placer.admit", "placer.retire",
		"metacompiler.rewire", "metacompiler.admit", "metacompiler.retire"} {
		layers[l+"_ms"] = med[l] / 1e6
	}
	rows, total := tr.attribution()
	printAttribution(out, ctlRecon, rows, total)
	return layers, c, nil
}

// noopTickUs is the median cost of a Tick that finds nothing to do.
func noopTickUs(base []byte, tr *tracer) (float64, error) {
	d, err := daemon.New(daemon.Config{Interval: reconTick, Clock: daemon.NewFakeClock(time.Unix(0, 0))})
	if err != nil {
		return 0, err
	}
	if _, err := d.SetSpec(base, "bench:noop"); err != nil {
		return 0, err
	}
	if rr := d.Tick(); !rr.Converged {
		return 0, fmt.Errorf("base spec did not converge: %s", rr.Err)
	}
	var us []float64
	tr.begin("harness.noop_ticks")
	for i := 0; i < 1000; i++ {
		t0 := time.Now()
		d.Tick()
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	tr.end()
	return median(us), nil
}

// reconGraphs builds the graphs of the chains ids.
func reconGraphs(ids ...int) ([]*nfgraph.Graph, error) {
	var sb strings.Builder
	for _, id := range ids {
		sb.WriteString(reconChain(id, 500))
	}
	return experiments.BuildChainsFromSpec(sb.String())
}

// reconfigure times, under spans, the incremental placer and metacompiler
// calls a reconcile pass makes, on an input built the way
// daemon.applyLocked builds it: twenty admit/retire rounds and one failure
// re-placement on a deployment of four chains.
func reconfigure(tr *tracer) error {
	graphs, err := reconGraphs(0, 1, 2, 3)
	if err != nil {
		return err
	}
	in := &placer.Input{Chains: graphs, Topo: hw.NewPaperTestbed(hw.WithServers(reconServers)),
		DB: profile.DefaultDB(), Restrict: experiments.EvalRestrict, Parallel: 1, HeadroomCores: 4}
	res, err := placer.Place(placer.SchemeLemur, in)
	if err != nil {
		return err
	}
	if !res.Feasible {
		return fmt.Errorf("reconfigure: base placement infeasible: %s", res.Reason)
	}
	dep, err := metacompiler.Compile(in, res)
	if err != nil {
		return err
	}
	for round := 0; round < 20; round++ {
		// Admit one chain into a new tail slot (slots are never reused).
		slot := len(in.Chains)
		added, err := reconGraphs(slot)
		if err != nil {
			return err
		}
		grown := *in
		grown.Chains = append(append(grown.Chains[:0:0], in.Chains...), added...)
		tr.begin("placer.admit")
		arep, err := placer.Admit(res, &grown, []int{slot})
		tr.end()
		if err != nil {
			return err
		}
		if arep.Outcome != placer.AdmitIncremental {
			return fmt.Errorf("reconfigure: admission %d was %s, not incremental", round, arep.Outcome)
		}
		tr.begin("metacompiler.admit")
		_, err = dep.AdmitChains(&grown, arep.Result, []int{slot})
		tr.end()
		if err != nil {
			return err
		}
		in, res = &grown, arep.Result
		// Retire it again.
		tr.begin("placer.retire")
		next, err := placer.Retire(res, in, []int{slot})
		tr.end()
		if err != nil {
			return err
		}
		tr.begin("metacompiler.retire")
		_, err = dep.RetireChains(next, []int{slot})
		tr.end()
		if err != nil {
			return err
		}
		res = next
	}
	return replaceServer(in, res, dep, res.Subgroups[0].Server, tr)
}

// replaceServer times the failover path: re-place after server dies, then
// rewire the deployment.
func replaceServer(in *placer.Input, res *placer.Result, dep *metacompiler.Deployment, server string, tr *tracer) error {
	failed := placer.NewNodeSet(server)
	tr.begin("placer.replace")
	next, err := placer.Replace(res, in, failed)
	tr.end()
	if err != nil {
		return err
	}
	affected := placer.AffectedChains(in, res, failed.Expand(in.Topo))
	tr.begin("metacompiler.rewire")
	_, err = dep.Rewire(next, affected)
	tr.end()
	return err
}
