package main

import (
	"math"
	"sort"

	"lemur/internal/placer"
)

// metricDef describes one metric of the benchmark. BENCHMARK.json lists the
// same names, units and directions (bench_test.go holds the two in step);
// Moves and On exist only here and in README.md, because the BENCHMARK.json
// schema has no field for them.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Per-layer only: the end-to-end metric this layer metric should move,
	// and the workloads on which it should move it.
	Moves string
	On    string
}

// endToEnd is the gated list: what a user of the system sees and this box
// can repeat. Every workload reports every one of them; what "work" means
// per workload is in workloadUnits and README.md.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_work", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "alloc_bytes_per_work", Unit: "B", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "result_gbps", Unit: "Gbps", Better: "higher", Bound: 0.02},
	{Name: "slo_met_ratio", Unit: "ratio", Better: "higher", Bound: 0.01},
}

// hostTime is the other half of what a user sees: how long it takes. On the
// shared two-core box the benchmark was frozen on, ten runs of one workload
// spread by 5 to 29 % of their median in these metrics and two back-to-back
// sets of ten disagreed by up to 23 %, wall time and CPU time alike,
// whatever statistic a run reports; a gate on them would reject at random.
// So every run reports them (an untraced run on its host-time line, a traced
// run as host.* in the per-layer list) and compare judges them against these
// bounds, the ones ISSUE 11 asked for, saying "unresolved" when the sets'
// own spread is wider.
var hostTime = []metricDef{
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	{Name: "cpu_us_per_work", Unit: "us", Better: "lower", Bound: 0.10},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "op_ms_tail", Unit: "ms", Better: "lower", Bound: 0.15},
}

const (
	simFrame = "sim_frame_path"
	simHit   = "sim_stateful_hit"
	simChurn = "sim_stateful_churn"
	simFail  = "sim_failover_steps"
	ctlPlace = "ctl_place_fleet"
	ctlRecon = "ctl_reconcile"

	allSim   = "sim_*"
	stateful = simHit + "," + simChurn
)

// nfClasses are the NF bodies timed in place by the wrappers of replica.go.
var nfClasses = []string{"ACL", "BPF", "Encrypt", "FastEncrypt", "Dedup", "NAT", "LB",
	"Monitor", "Limiter", "UrlFilter", "Tunnel", "Detunnel", "IPv4Fwd"}

// perLayer is the attribution table's metric list. A workload reports 0 for
// a layer it does not cross, which is itself the statement that the layer
// is bypassed there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better, moves, on string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better, Moves: moves, On: on})
	}
	// The host-time metrics, measured untraced within the traced run.
	for _, d := range hostTime {
		add("host."+d.Name, d.Unit, d.Better, d.Name, "all")
	}
	// Frame path: per-packet fixed cost, at the smallest and the default
	// frame size. Predicted to move sim_frame_path and stay within noise on
	// sim_stateful_hit.
	for _, size := range []string{"64", "1530"} {
		for _, l := range []string{"trafficgen.ns_per_pkt", "packet.decode_ns_per_pkt",
			"nsh.encap_decap_ns_per_pkt", "pisa.ns_per_pkt", "bess.dispatch_ns_per_pkt",
			"smartnic.ns_per_pkt"} {
			add(l+"_"+size, "ns", "lower", "work_per_s", simFrame)
		}
		add("openflow.ns_per_pkt_"+size, "ns", "lower", "work_per_s", "none (standalone device)")
	}
	add("pisa.hops_per_pkt", "count", "lower", "work_per_s", simFrame)
	add("bess.hops_per_pkt", "count", "lower", "work_per_s", simFrame)
	add("smartnic.hops_per_pkt", "count", "lower", "work_per_s", simHit)

	// NF bodies: move the stateful pair, not the frame path.
	for _, c := range nfClasses {
		add("nf."+c+".ns_per_pkt", "ns", "lower", "work_per_s", stateful)
	}
	add("nf.body_share", "ratio", "lower", "work_per_s", stateful)
	add("nf.flowtab.hit_ratio", "ratio", "higher", "work_per_s", stateful)
	add("nf.state_entries", "count", "lower", "peak_rss_mb", stateful)
	add("nf.state_evictions", "count", "lower", "work_per_s", simChurn)

	// Simulator engine.
	add("runtime.self_ns_per_pkt", "ns", "lower", "work_per_s", simFrame+","+simFail)
	add("runtime.steps", "count", "lower", "work_per_s", simFail)
	add("runtime.pkts_per_step", "count", "higher", "work_per_s", simFail)
	add("runtime.bytes_per_pkt", "bytes", "lower", "allocs_per_work", simFrame+","+simFail)
	add("runtime.cold_run_ratio", "ratio", "lower", "setup_s", allSim)
	add("runtime.parallel_speedup", "ratio", "higher", "work_per_s", simFail)
	add("runtime.epoch_slowdown_ratio", "ratio", "lower", "work_per_s", simFail)
	add("runtime.sim_drop_ratio", "ratio", "lower", "result_gbps", allSim)
	add("runtime.sim_p99_queue_delay_us", "us", "lower", "slo_met_ratio", allSim)
	add("runtime.verify_ms", "ms", "lower", "work_per_s", ctlPlace)

	// Observability.
	add("obs.on_overhead_ratio", "ratio", "lower", "work_per_s", simFrame)
	add("trace.overhead_ratio", "ratio", "lower", "work_per_s", "all")

	// Placement.
	add("nfspec.parse_us", "us", "lower", "setup_s", ctlPlace)
	add("nfgraph.build_us", "us", "lower", "setup_s", ctlPlace)
	for _, s := range placer.Schemes() {
		add("placer."+string(s)+".place_ms", "ms", "lower", "op_ms_p50", ctlPlace)
	}
	add("placer.optimal.combos_evaluated", "count", "lower", "op_ms_tail", ctlPlace)
	add("placer.optimal.pruned_ratio", "ratio", "higher", "op_ms_tail", ctlPlace)
	add("placer.feasible_ratio", "ratio", "higher", "slo_met_ratio", ctlPlace)
	add("lp.solve_us", "us", "lower", "op_ms_tail", ctlPlace)
	add("pisa.compile_us", "us", "lower", "op_ms_tail", ctlPlace)
	add("pisa.cache_hit_ratio", "ratio", "higher", "op_ms_tail", ctlPlace)
	add("metacompiler.compile_ms", "ms", "lower", "work_per_s", ctlPlace)
	add("lemur.deploy_ms_p50", "ms", "lower", "work_per_s", ctlPlace)

	// Reconfiguration and daemon.
	for _, l := range []string{"placer.replace_ms", "placer.admit_ms", "placer.retire_ms",
		"metacompiler.rewire_ms", "metacompiler.admit_ms", "metacompiler.retire_ms"} {
		add(l, "ms", "lower", "op_ms_p50", ctlRecon+","+simFail)
	}
	add("daemon.setspec_ms", "ms", "lower", "op_ms_p50", ctlRecon)
	add("daemon.tick_ms", "ms", "lower", "op_ms_p50", ctlRecon)
	add("daemon.tick_noop_us", "us", "lower", "cpu_us_per_work", ctlRecon)
	add("daemon.snapshot_bytes", "bytes", "lower", "op_ms_tail", ctlRecon)
	add("daemon.oplog_growth_ratio", "ratio", "lower", "op_ms_tail", ctlRecon)
	add("daemon.status_ms_p99", "ms", "lower", "op_ms_tail", ctlRecon)
	add("daemon.status_late_ms", "ms", "lower", "op_ms_tail", ctlRecon)
	add("daemon.replay_ms", "ms", "lower", "work_per_s", ctlRecon)
	return out
}

// sorted returns a sorted copy.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v; 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), because that is what
// the driver's spread check uses. Fewer than two values have no spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// tailPercentile returns the highest percentile of v, at most want, that
// still has ten samples beyond it, and which percentile that is. With fewer
// than twenty samples no percentile above the median qualifies and the
// median is returned: the sample supports no tail claim.
func tailPercentile(v []float64, want float64) (value, pct float64) {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n < 20 {
		return median(s), 0.5
	}
	// Index k leaves n-1-k samples beyond it.
	k := int(math.Ceil(want*float64(n))) - 1
	if k > n-11 {
		k = n - 11
	}
	return s[k], float64(k+1) / float64(n)
}
