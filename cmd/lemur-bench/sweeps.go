package main

import (
	"fmt"
	"os"
	runtimepkg "runtime"
	"time"

	"lemur/internal/experiments"
	"lemur/internal/hw"
	"lemur/internal/placer"
	"lemur/internal/runtime"
)

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

// runScale is the -scale command: the throughput-vs-flow-count curve.
// Chains {1,2,3,4} (every stateful NF class: NAT, Monitor, Dedup, LB, with
// the stateful classes pinned to servers) are placed once at δ=0.5, then
// simulated at 1k/10k/100k/1M pre-generated concurrent flows — the top
// point pushes ten million packets through million-flow state tables.
// Stdout is deterministic and byte-identical at any -parallel value; the
// wall-clock throughput of each point goes to stderr, with the sweep's
// allocations per packet when the cells ran serially (-parallel 1).
func (b bench) runScale() {
	r := b.newRunner(hw.NewPaperTestbed())
	points := experiments.DefaultScalePoints(11)

	var before, after runtimepkg.MemStats
	runtimepkg.ReadMemStats(&before)
	cells, err := r.ScaleSweep([]int{1, 2, 3, 4}, 0.5, points, runtime.SimConfig{Workers: b.simWorkers})
	runtimepkg.ReadMemStats(&after)
	if err != nil {
		fatal(err)
	}

	fmt.Println("flow-scale sweep: chains {1,2,3,4}, δ=0.5, stateful NFs on servers, flow count vs state pressure")
	w := tw()
	fmt.Fprintln(w, "flows\tpackets\tsim time\tdrop\tavg delay\tp99 delay\tNAT entries\texhausted\tevictions\t")
	totalPkts := 0
	for _, c := range cells {
		natEntries, exhausted, evicted := 0, uint64(0), uint64(0)
		for _, st := range c.NFState {
			if st.Class == "NAT" {
				natEntries += st.Entries
			}
			exhausted += st.Exhausted
			evicted += st.Evicted
		}
		fmt.Fprintf(w, "%d\t%d\t%.1fs\t%.2f%%\t%.1fus\t%.1fus\t%d\t%d\t%d\t\n",
			c.Point.Flows, c.Packets, c.DurationSec, c.DropRate*100,
			c.AvgDelaySec*1e6, c.P99DelaySec*1e6, natEntries, exhausted, evicted)
		totalPkts += c.Packets
	}
	w.Flush()
	for _, c := range cells {
		fmt.Fprintf(os.Stderr, "flows %d: %.0f pkts/s wall clock\n",
			c.Point.Flows, float64(c.Packets)/(float64(c.WallNs)/1e9))
	}
	if b.parallel == 1 && totalPkts > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %.3f allocs/pkt\n", float64(after.Mallocs-before.Mallocs)/float64(totalPkts))
	}
}

// runCores is the -cores command: the cores-vs-throughput curve. One
// flow-scaled point — chains {1,2,3,4} at δ=0.5 on a widened rack, stateful
// NFs pinned to servers — is simulated once per worker count {1,2,4,8},
// strictly sequentially on fresh deployments, and every run's SimResult
// must match the serial run byte for byte. Wall-clock speedup is only
// meaningful when GOMAXPROCS gives the shards real cores to land on.
func (b bench) runCores(flows, targetPackets int) {
	r := b.newRunner(hw.NewPaperTestbed(hw.WithServers(8)))
	counts := experiments.DefaultCoresCounts()
	cells, err := r.CoresSweep([]int{1, 2, 3, 4}, 0.5, flows, targetPackets, counts, runtime.SimConfig{})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("cores sweep: chains {1,2,3,4}, δ=0.5, %d flows, one run per worker count (SimResult byte-identical across all)\n", flows)
	w := tw()
	fmt.Fprintln(w, "workers\tpackets\twall\tpkts/sec\tspeedup\tallocs/pkt\t")
	for _, c := range cells {
		fmt.Fprintf(w, "%d\t%d\t%.2fs\t%.0f\t%.2fx\t%.3f\t\n",
			c.Workers, c.Packets, float64(c.WallNs)/1e9, c.PktsPerSec, c.Speedup, c.AllocsPerPkt)
	}
	w.Flush()
}

// runPlaceScale is the -place-scale command: the interactive-placement
// solve-time curve. Every scheme places every (fleet size × chain set) cell
// placement-only; the Optimal scheme reports its branch-and-bound search
// accounting, and its speedup column is the unpruned cross-product over the
// combos the search scored (Combinations / Visited). Every column but the
// wall-clock solve time is byte-identical at any -parallel value (run with
// -parallel 1 for honest serial timings).
func (b bench) runPlaceScale() {
	r := b.newRunner(hw.NewPaperTestbed())
	r.SkipMeasure = true
	r.BruteForceBudget = 1 << 30 // the sweep measures pruning, not budgets
	cells, err := r.PlaceScaleSweep(experiments.DefaultPlaceScalePoints(), placer.Schemes())
	if err != nil {
		fatal(err)
	}

	fmt.Println("placement-scale sweep: fleet size × chain set, all schemes, δ=0.5, placement only")
	w := tw()
	fmt.Fprintln(w, "servers\tchains\tscheme\tfeasible\taggregate\tsolve\tcombos\tvisited\tpruned\tcollapsed\tspeedup\t")
	for _, c := range cells {
		for _, s := range c.Schemes {
			feas := "yes"
			if !s.Feasible {
				feas = "no"
			}
			search, visited, pruned, collapsed, speedup := "-", "-", "-", "-", "-"
			if s.Scheme == string(placer.SchemeOptimal) {
				search = fmt.Sprintf("%.0f", s.Combinations)
				v := s.Evaluated + s.BindRejected
				visited = fmt.Sprintf("%d", v)
				pruned = fmt.Sprintf("%d", s.PrunedSubtrees+s.DemandPruned)
				collapsed = fmt.Sprintf("%d", s.CollapsedSubtrees)
				if v > 0 {
					speedup = fmt.Sprintf("%.1fx", s.Combinations/float64(v))
				}
			}
			fmt.Fprintf(w, "%d\t%v\t%s\t%s\t%.1fG\t%s\t%s\t%s\t%s\t%s\t%s\t\n",
				c.Point.Servers, c.Point.Chains, s.Scheme, feas, s.AggregateGbps,
				fmtNs(s.PlaceNs), search, visited, pruned, collapsed, speedup)
		}
	}
	w.Flush()
}

// fmtNs renders a solve time at a human scale.
func fmtNs(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%.0fus", float64(ns)/1e3)
	}
}

// runLatencySweep is the -deadline command: the EDF-vs-round-robin
// deadline-compliance sweep over the nine-hop deadline chain (see
// experiments.LatencyChainSpec for why that shape), byte-identical at any
// -parallel and -sim-workers value.
func (b bench) runLatencySweep() {
	r := b.newRunner(hw.NewPaperTestbed())
	spec := experiments.DefaultLatencySpec
	schemes := []placer.Scheme{placer.SchemeLemur, placer.SchemeHWPreferred, placer.SchemeSWPreferred}
	points := experiments.DefaultLatencyPoints(1)
	curves, err := r.LatencySweep(spec, points, schemes,
		runtime.SimConfig{DurationSec: 1.0, Workers: b.simWorkers})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("deadline scheduling: t_min %s Gbps, d_max %.0f ms, EDF vs round-robin\n",
		gbps(spec.TMinBps), spec.DMaxSec*1e3)
	w := tw()
	fmt.Fprintln(w, "scheme\tload\tthroughput edf/rr\tworst p99 edf/rr\tcompliance edf/rr\t")
	for _, cv := range curves {
		if !cv.Feasible {
			fmt.Fprintf(w, "%s\t—\tinfeasible: %.48s\t\t\t\n", cv.Scheme, cv.Reason)
			continue
		}
		for _, cell := range cv.Cells {
			fmt.Fprintf(w, "%s\t%.1fx\t%s / %s Gbps\t%.1f / %.1f ms\t%.1f%% / %.1f%%\t\n",
				cv.Scheme, cell.Point.LoadFactor,
				gbps(sum(cell.EDF.AchievedBps)), gbps(sum(cell.RR.AchievedBps)),
				worst(cell.EDF.P99QueueDelaySec)*1e3, worst(cell.RR.P99QueueDelaySec)*1e3,
				worstCompliance(cell.EDF.DeadlineCompliance)*100,
				worstCompliance(cell.RR.DeadlineCompliance)*100)
		}
	}
	w.Flush()
}

// runReconcile is the -reconcile command: the control-plane convergence
// sweep at the given reconcile interval. The table is deterministic at any
// -parallel value; each scenario's wall-clock time goes to stderr.
func (b bench) runReconcile(interval time.Duration) {
	points, err := experiments.ReconcileSweep(interval, b.parallel)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("lemurd reconcile convergence at interval %v (fake clock)\n", interval)
	w := tw()
	fmt.Fprintln(w, "scenario\tbase\tops\tticks\tconverge\tpinned\treconciles\tapplies\tbackoff\trejected\t")
	for _, p := range points {
		conv := fmt.Sprintf("%.1fs", p.ConvergeSimSec)
		if !p.Converged {
			conv = "DIVERGED"
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\t\n",
			p.Scenario, p.BaseChains, p.Ops, p.Ticks, conv, p.PinnedSubgroups,
			p.Reconciles, p.Applies, p.BackoffRetries, p.RejectedSpecs)
	}
	w.Flush()
	for _, p := range points {
		fmt.Fprintf(os.Stderr, "%s: %.2fms wall clock\n", p.Scenario, float64(p.WallNs)/1e6)
	}
}

func sum(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s
}

func worst(vs []float64) float64 {
	m := 0.0
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}

// worstCompliance is the minimum per-chain compliance — the chain closest
// to violating its deadline SLO.
func worstCompliance(vs []float64) float64 {
	if len(vs) == 0 {
		return 1
	}
	m := 1.0
	for _, v := range vs {
		if v < m {
			m = v
		}
	}
	return m
}
