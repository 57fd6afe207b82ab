package main

import (
	"fmt"
	"os"
	runtimepkg "runtime"
	"time"

	"lemur/internal/experiments"
	"lemur/internal/hw"
	"lemur/internal/metacompiler"
	"lemur/internal/pisa"
	"lemur/internal/placer"
	"lemur/internal/profile"
	"lemur/internal/runtime"
)

// runMeta records the execution environment in every JSON artifact, so a
// committed curve can be read against the hardware that produced it —
// wall-clock throughput from a 1-CPU container and a 32-core box are not
// comparable numbers.
type runMeta struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	// SimWorkers is the -sim-workers shard count threaded into each
	// simulation run; Parallel is the -parallel experiment-cell bound.
	SimWorkers int `json:"sim_workers"`
	Parallel   int `json:"parallel"`
}

func newRunMeta(parallel, simWorkers int) runMeta {
	return runMeta{
		GOMAXPROCS: runtimepkg.GOMAXPROCS(0),
		NumCPU:     runtimepkg.NumCPU(),
		SimWorkers: simWorkers,
		Parallel:   parallel,
	}
}

// benchEntry is one (scheme, δ) placement timing on the four-chain set.
type benchEntry struct {
	Scheme   string  `json:"scheme"`
	Combo    []int   `json:"combo"`
	Delta    float64 `json:"delta"`
	Iters    int     `json:"iters"`
	NsPerOp  int64   `json:"ns_per_op"`
	Feasible bool    `json:"feasible"`
}

// simBenchEntry is one simulator throughput measurement at a load factor.
type simBenchEntry struct {
	LoadFactor   float64 `json:"load_factor"`
	Packets      int     `json:"packets"`
	PktsPerSec   float64 `json:"sim_pkts_per_sec"`
	AllocsPerPkt float64 `json:"allocs_per_pkt"`
	DropRate     float64 `json:"drop_rate"`
}

// benchReport is the -bench-out JSON document.
type benchReport struct {
	Parallel     int             `json:"parallel"`
	Meta         runMeta         `json:"meta"`
	Entries      []benchEntry    `json:"entries"`
	Sim          []simBenchEntry `json:"sim"`
	TotalNs      int64           `json:"total_ns"`
	CacheHits    uint64          `json:"pisa_cache_hits"`
	CacheMisses  uint64          `json:"pisa_cache_misses"`
	CacheHitRate float64         `json:"pisa_cache_hit_rate"`
}

// runBenchOut sweeps placement-only timings (no testbed measurement) for
// every scheme over the four-chain combination at the low-δ grid, and writes
// per-cell ns/op plus the shared PISA compile-cache statistics.
func (b bench) runBenchOut(path string) {
	const iters = 3
	combo := []int{1, 2, 3, 4}
	deltas := []float64{0.5, 1.0, 1.5, 2.0}

	r := b.newRunner(hw.NewPaperTestbed())
	r.SkipMeasure = true

	pisa.SharedCache().Reset()
	report := benchReport{Parallel: b.parallel, Meta: newRunMeta(b.parallel, b.simWorkers)}
	start := time.Now()
	for _, scheme := range placer.Schemes() {
		for _, d := range deltas {
			var elapsed time.Duration
			feasible := false
			for it := 0; it < iters; it++ {
				t0 := time.Now()
				sr, _, err := r.RunSet(combo, d, scheme)
				elapsed += time.Since(t0)
				if err != nil {
					fatal(err)
				}
				feasible = sr.Feasible
			}
			report.Entries = append(report.Entries, benchEntry{
				Scheme:   string(scheme),
				Combo:    combo,
				Delta:    d,
				Iters:    iters,
				NsPerOp:  elapsed.Nanoseconds() / iters,
				Feasible: feasible,
			})
		}
	}
	report.Sim = simBenchEntries(b.simWorkers)
	report.TotalNs = time.Since(start).Nanoseconds()
	st := pisa.SharedCache().Stats()
	report.CacheHits = st.Hits
	report.CacheMisses = st.Misses
	report.CacheHitRate = st.HitRate()

	writeJSON(path, report)
	fmt.Printf("wrote %s (total %.2fs, pisa cache hit rate %.1f%%)\n",
		path, time.Duration(report.TotalNs).Seconds(), st.HitRate()*100)
}

// simBenchEntries measures the dataplane simulator's packet throughput and
// allocation rate at each load factor: chains {1,2,3} at δ=0.5, each point
// simulated on a freshly compiled deployment (a run mutates NF state).
func simBenchEntries(simWorkers int) []simBenchEntry {
	chains := []int{1, 2, 3}
	topo := hw.NewPaperTestbed()
	bases, err := experiments.BaseRates(chains, topo, profile.DefaultDB())
	if err != nil {
		fatal(err)
	}
	tmins := make([]float64, len(bases))
	for i, b := range bases {
		tmins[i] = 0.5 * b
	}
	graphs, err := experiments.BuildChains(chains, tmins, hw.Gbps(100), 0)
	if err != nil {
		fatal(err)
	}
	in := &placer.Input{Chains: graphs, Topo: topo, DB: profile.DefaultDB(), Restrict: experiments.EvalRestrict}
	res, err := placer.Place(placer.SchemeLemur, in)
	if err != nil {
		fatal(err)
	}
	if !res.Feasible {
		fatal(fmt.Errorf("sim bench placement infeasible: %s", res.Reason))
	}

	var out []simBenchEntry
	for _, lf := range []float64{0.8, 1.2, 1.8} {
		d, err := metacompiler.Compile(in, res)
		if err != nil {
			fatal(err)
		}
		tb := runtime.New(d, 7)
		offered := make([]float64, len(res.ChainRates))
		for i, r := range res.ChainRates {
			offered[i] = r * lf
		}
		var before, after runtimepkg.MemStats
		runtimepkg.ReadMemStats(&before)
		t0 := time.Now()
		sim, err := tb.Simulate(offered, runtime.SimConfig{Seed: 7, DurationSec: 0.5, Workers: simWorkers})
		elapsed := time.Since(t0)
		runtimepkg.ReadMemStats(&after)
		if err != nil {
			fatal(err)
		}
		pkts, dropped, egressed := 0, 0, 0
		for ci := range sim.Injected {
			pkts += sim.Injected[ci]
			egressed += sim.Egressed[ci]
		}
		dropped = pkts - egressed
		drop := 0.0
		if pkts > 0 {
			drop = float64(dropped) / float64(pkts)
		}
		out = append(out, simBenchEntry{
			LoadFactor:   lf,
			Packets:      pkts,
			PktsPerSec:   float64(pkts) / elapsed.Seconds(),
			AllocsPerPkt: float64(after.Mallocs-before.Mallocs) / float64(pkts),
			DropRate:     drop,
		})
	}
	return out
}

// runSimSweep is the -sim command: a parallel load-factor sweep over chains
// {1,2,3} using the batched simulator, reduced deterministically by point
// index (the table is identical at any -parallel value).
func (b bench) runSimSweep() {
	r := b.newRunner(hw.NewPaperTestbed())
	points := experiments.DefaultSimPoints(1)
	cells, err := r.SimSweep([]int{1, 2, 3}, 0.5, points, runtime.SimConfig{DurationSec: 0.5, Workers: b.simWorkers})
	if err != nil {
		fatal(err)
	}
	fmt.Println("simulation sweep: chains {1,2,3}, δ=0.5, per-chain load factor vs outcome")
	w := tw()
	fmt.Fprintln(w, "load\toffered\tachieved\tdrop\tavg delay\tp99 delay\t")
	for _, c := range cells {
		var inj, egr float64
		for ci := range c.Sim.Injected {
			inj += float64(c.Sim.Injected[ci])
			egr += float64(c.Sim.Egressed[ci])
		}
		drop := 0.0
		if inj > 0 {
			drop = (inj - egr) / inj
		}
		fmt.Fprintf(w, "%.1fx\t%s Gbps\t%s Gbps\t%.2f%%\t%.1fus\t%.1fus\t\n",
			c.Point.LoadFactor, gbps(sum(c.Sim.OfferedBps)), gbps(sum(c.Sim.AchievedBps)), drop*100,
			worst(c.Sim.AvgQueueDelaySec)*1e6, worst(c.Sim.P99QueueDelaySec)*1e6)
	}
	w.Flush()
}

// runChurnBench is the -churn command: the admission-capacity table. On the
// paper rack, chains {1,2} are placed as the base tenants with a 4-core
// admission headroom reserve (an offline placement spends every core on
// marginal throughput, which leaves nothing for newcomers), then canonical
// chains are admitted one at a time; each row reports the placer's three-way
// verdict (incremental / full-repack / infeasible), the subgroups pinned by
// pointer, and the admitted placement's marginal headroom. Cells run in
// parallel and stdout is byte-identical at any -parallel value; the
// incremental-vs-full solve-time comparison is wall clock, so it goes to
// stderr.
func (b bench) runChurnBench() {
	r := b.newRunner(hw.NewPaperTestbed())
	r.Headroom = 4
	base := []int{1, 2}
	admits := experiments.DefaultChurnAdmits(12)
	steps, err := r.ChurnSweep(base, admits, 0.5, placer.SchemeLemur)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("churn: base chains %v at δ=0.5 with %d-core headroom, admitting %v one at a time\n",
		base, r.Headroom, admits)
	w := tw()
	fmt.Fprintln(w, "step\tbase\tadmit\tverdict\tpinned\tmarginal\trepack ok\t")
	for _, st := range steps {
		marginal := "—"
		if st.Outcome == placer.AdmitIncremental {
			marginal = gbps(st.MarginalBps) + " Gbps"
		}
		verdict := st.Outcome.String()
		if !st.BaseFeasible {
			verdict = "base infeasible"
		}
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%d\t%s\t%v\t\n",
			st.Step, st.BaseChains, st.ChainName, verdict, st.Pinned, marginal, st.FullFeasible)
	}
	w.Flush()
	fmt.Printf("admission capacity: %d chain(s) admitted incrementally before the first refusal\n",
		experiments.AdmittedCapacity(steps))
	for _, st := range steps {
		fmt.Fprintf(os.Stderr, "step %d: incremental solve %.2fms vs full placement %.2fms\n",
			st.Step, float64(st.IncrementalNs)/1e6, float64(st.FullPlaceNs)/1e6)
	}
}

// runFailover is the -failover command: the "SLO compliance under k
// failures" table. A three-server rack places chains {1,2,3}; each row
// crashes k servers mid-run and reports downtime, fault drops, and how many
// chains still meet their SLO after the incremental re-placement. The sweep
// runs cells in parallel and is byte-identical at any -parallel value.
func (b bench) runFailover() {
	topo := hw.NewPaperTestbed(hw.WithServers(3))
	var servers []string
	for _, s := range topo.Servers {
		servers = append(servers, s.Name)
	}
	r := b.newRunner(topo)
	points := experiments.DefaultFailoverPoints(servers, 1)
	// Scale 50 keeps per-step cycle budgets above every chain's per-packet
	// cost so low-rate expensive chains make progress in the simulator.
	cells, err := r.FailoverSweep([]int{1, 2, 3}, 0.5, points, runtime.SimConfig{DurationSec: 0.25, Scale: 50, Workers: b.simWorkers})
	if err != nil {
		fatal(err)
	}
	fmt.Println("failover: chains {1,2,3}, δ=0.5, crash k servers at t=0.05s (detection 10ms + reconfig 20ms)")
	w := tw()
	fmt.Fprintln(w, "k\tcrashed\tSLO-compliant\tmax downtime\tfault drops\trewire\t")
	for _, c := range cells {
		crashed := "—"
		if len(c.Point.Crash) > 0 {
			crashed = fmt.Sprint(c.Point.Crash)
		}
		downtime, drops, rewire := 0.0, 0, "—"
		if fo := c.Sim.Failover; fo != nil {
			for ci := range fo.DowntimeSec {
				if fo.DowntimeSec[ci] > downtime {
					downtime = fo.DowntimeSec[ci]
				}
				drops += fo.FaultDrops[ci]
			}
			switch {
			case fo.ReplaceError != "":
				rewire = "FAILED: " + fo.ReplaceError
			case fo.RewireSummary != "":
				rewire = fo.RewireSummary
			}
		}
		fmt.Fprintf(w, "%d\t%s\t%d/%d\t%.1fms\t%d\t%.60s\t\n",
			len(c.Point.Crash), crashed, c.CompliantChains, c.TotalChains, downtime*1e3, drops, rewire)
	}
	w.Flush()
}
