// Command bench is the one benchmark of this repository: six workloads, the
// end-to-end metrics of metrics.go measured with tracing off, and a traced
// pass that attributes each workload's time to the layers it crosses. It
// drives the repository only through exported functions and checks every
// output it times. README.md in this directory says what each workload and
// metric is for; BENCHMARK.json at the repository root is the contract a
// driver runs it under.
//
//	go run . -workload sim_frame_path            one run, end-to-end metrics
//	go run . -workload sim_frame_path -trace 1   one run, per-layer metrics
//	go run . -workload all -runs 10 -out A.json  a set of runs, one process each
//	go run . compare A.json B.json               regression table of two sets
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	goruntime "runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloadNames is the fixed list, in report order.
var workloadNames = []string{simFrame, simHit, simChurn, simFail, ctlPlace, ctlRecon}

// workloadWhy is why each workload exists; BENCHMARK.json carries the same
// lines.
var workloadWhy = map[string]string{
	simFrame: "bare forwarding: three chains of trivial NFs at Scale 1, so per-packet fixed cost (trafficgen, decode, NSH, switch, bess dispatch, step loop) is the work; bypasses NF bodies and state tables",
	simHit:   "canonical chains 1-5 with 200K flows replayed on one warm deployment, so NF bodies and state-table lookups that hit are the work; the frame path is a small share",
	simChurn: "the same chains on a fresh deployment per repetition with 1 s flows, so the same tables see inserts, evictions and NAT exhaustion instead of hits; bypasses warm lookups",
	simFail:  "chains 1-4 in small steps under crash/overload/crash with two workers: the epoch-barrier driver, mid-run Replace and Rewire; bypasses the free-running drivers",
	ctlPlace: "closed loop, one client: 45 inputs x six schemes placed, compiled and verified from a cold compile cache; nfspec to metacompiler do the work, no packets beyond the verify walk",
	ctlRecon: "closed loop, one operator, plus an open-loop status reader: 200 seeded ops through lemurd with snapshots, then a restart from the log; bypasses the dataplane",
}

// workloadUnits says what one unit of work and one operation are.
var workloadUnits = map[string]string{
	simFrame: "work = simulated packet injected; operation = one Simulate on a fresh deployment",
	simHit:   "work = simulated packet injected; operation = one Simulate on the warm deployment",
	simChurn: "work = simulated packet injected; operation = one Simulate on a fresh deployment",
	simFail:  "work = simulated packet injected; operation = one Simulate under the fault plan",
	ctlPlace: "work = matrix cell placed, compiled and verified; operation = one placer.Place",
	ctlRecon: "work = daemon op converged; operation = SetSpec/InjectFailures to the converged Tick",
}

// outDir holds trace files and the daemon's snapshots, relative to the
// bench directory the harness runs in.
const outDir = "out"

// setupReps is how often set-up runs; setup_s is the median.
const setupReps = 5

// checks counts operations and the output checks they failed.
type checks struct {
	attempted, failed int
	notes             []string
}

func (c *checks) add(o checks) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.notes = append(c.notes, o.notes...)
}

func (c *checks) fail(format string, args ...any) {
	c.failed++
	c.notes = append(c.notes, fmt.Sprintf(format, args...))
}

// repResult is what one timed repetition reports.
type repResult struct {
	checks
	work   float64   // units of work completed
	opsMs  []float64 // latency of each operation; empty: the repetition is the one operation
	gbps   float64   // the outcome in Gbps; repeats exactly for a seed
	sloMet float64   // share of chains, cells or ops whose SLO the outcome meets
	digest string    // hash of the outputs; every repetition of a run must give the same
}

// digestOf hashes a value's JSON encoding; equal digests mean byte-identical
// outputs.
func digestOf(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8])
}

// workload is one of the six. setup may run several times; the last one's
// state is what rep and traced use.
type workload interface {
	setup(seed int64) error
	// rep runs one untraced repetition of the same seeded work.
	rep() (repResult, error)
	// traced runs the traced pass and returns the per-layer metrics it
	// measured (missing names are reported as 0).
	traced(tr *tracer, out io.Writer) (map[string]float64, checks, error)
	close()
}

func newWorkload(name string) (workload, error) {
	switch name {
	case simFrame, simHit, simChurn, simFail:
		return &simWorkload{spec: simSpecs[name]}, nil
	case ctlPlace:
		return &placeWorkload{}, nil
	case ctlRecon:
		return &reconWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// meta says where and on what a result was measured.
type meta struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func newMeta(seed int64) meta {
	m := meta{GOMAXPROCS: goruntime.GOMAXPROCS(0), NumCPU: goruntime.NumCPU(),
		GoVersion: goruntime.Version(), Commit: "unknown", Seed: seed}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output: exactly these keys,
// and in Metrics exactly the end-to-end metrics (trace 0) or the per-layer
// ones (trace 1).
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// hostLinePrefix starts the line on which an untraced run prints its
// host-time metrics as JSON, for runSet and compare; the result line has no
// room for them.
const hostLinePrefix = "host-time: "

// traceMeasure is how long a traced run measures untraced, to report the
// host-time metrics in the per-layer list too.
const traceMeasure = 2 * time.Second

// usage is the process's user+system CPU time and its peak resident set in
// MB (Linux reports KiB).
func usage() (cpu time.Duration, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024
}

// runOne is one run of one workload in this process.
func runOne(name string, seed int64, seconds int, traceOn bool, out io.Writer) (result, error) {
	printHost := func(values map[string]float64) {
		fmt.Fprintf(out, "\nhost-time metrics (reported and compared, not gated: this box does not repeat them within 25 %%)\n")
		for _, d := range hostTime {
			fmt.Fprintf(out, "  %-18s %16.6g %-6s (%s is better)\n", d.Name, values[d.Name], d.Unit, d.Better)
		}
	}
	w, err := newWorkload(name)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	m := newMeta(seed)
	fmt.Fprintf(out, "workload %s  seed %d  seconds %d  trace %v\n", name, seed, seconds, traceOn)
	fmt.Fprintf(out, "meta gomaxprocs=%d num_cpu=%d go=%s commit=%s\n", m.GOMAXPROCS, m.NumCPU, m.GoVersion, m.Commit)
	fmt.Fprintf(out, "%s\n%s\n", workloadWhy[name], workloadUnits[name])

	// Set-up runs setupReps times so that setup_s is a median; a traced
	// run needs the state only.
	n := setupReps
	if traceOn {
		n = 1
	}
	var setups []float64
	for i := 0; i < n; i++ {
		goruntime.GC()
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	res := result{Metrics: map[string]metricValue{}}
	var c checks
	if traceOn {
		tr := newTracer(name)
		layers, tc, err := w.traced(tr, out)
		if err != nil {
			return result{}, fmt.Errorf("traced pass: %w", err)
		}
		c.add(tc)
		path, err := tr.write(outDir, m)
		if err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "\n%d spans written to %s\n", len(tr.spans), path)
		host, hc := measure(w, traceMeasure, out)
		c.add(hc)
		printHost(host)
		for _, d := range hostTime {
			layers["host."+d.Name] = host[d.Name]
		}
		fmt.Fprintf(out, "\nper-layer metrics (0 = this workload does not cross the layer)\n")
		for _, d := range perLayer {
			res.Metrics[d.Name] = metricValue{layers[d.Name], d.Unit}
			fmt.Fprintf(out, "  %-36s %16.6g %-6s -> %s on %s\n", d.Name, layers[d.Name], d.Unit, d.Moves, d.On)
		}
		for name := range layers {
			if _, ok := res.Metrics[name]; !ok {
				return result{}, fmt.Errorf("traced pass reported %q, which perLayer does not list", name)
			}
		}
	} else {
		var e2e map[string]float64
		e2e, c = measure(w, time.Duration(seconds)*time.Second, out)
		e2e["setup_s"] = median(setups)
		_, e2e["peak_rss_mb"] = usage()
		fmt.Fprintf(out, "\nend-to-end metrics (set-up ran %d times)\n", len(setups))
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metricValue{e2e[d.Name], d.Unit}
			fmt.Fprintf(out, "  %-20s %16.6g %-6s (%s is better, bound %.0f%%)\n", d.Name, e2e[d.Name], d.Unit, d.Better, 100*d.Bound)
		}
		printHost(e2e)
		host := map[string]metricValue{}
		for _, d := range hostTime {
			host[d.Name] = metricValue{e2e[d.Name], d.Unit}
		}
		line, err := json.Marshal(host)
		if err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "%s%s\n", hostLinePrefix, line)
	}
	for _, n := range c.notes {
		fmt.Fprintf(out, "FAILED CHECK: %s\n", n)
	}
	res.Attempted, res.Failed = c.attempted, c.failed
	if res.Attempted < 1 {
		return result{}, fmt.Errorf("no operation was attempted")
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(out, "ops_failed_ratio %d/%d\n", res.Failed, res.Attempted)
	return res, nil
}

// measure repeats the workload's seeded work with tracing off until the
// timed sections add up to d, and folds the repetitions into the end-to-end
// and host-time metrics. The garbage collector runs before each repetition,
// outside the timed section, so that one repetition's garbage is not charged
// to the next.
func measure(w workload, d time.Duration, out io.Writer) (map[string]float64, checks) {
	var c checks
	var rates, cpus, allocs, bytes, ops, gbps, slo []float64
	first := ""
	var timed time.Duration
	for errs := 0; timed < d && errs < 3; {
		goruntime.GC()
		var m0, m1 goruntime.MemStats
		goruntime.ReadMemStats(&m0)
		c0, _ := usage()
		t0 := time.Now()
		r, err := w.rep()
		wall := time.Since(t0)
		c1, _ := usage()
		cpu := c1 - c0
		goruntime.ReadMemStats(&m1)
		timed += wall
		if err != nil {
			errs++
			c.attempted++
			c.fail("repetition: %v", err)
			continue
		}
		if first == "" {
			first = r.digest
		} else if r.digest != first {
			r.fail("outputs differ from the first repetition's (digest %s, first %s)", r.digest, first)
		}
		c.add(r.checks)
		rates = append(rates, r.work/wall.Seconds())
		cpus = append(cpus, float64(cpu.Nanoseconds())/1e3/r.work)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/r.work)
		bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/r.work)
		gbps = append(gbps, r.gbps)
		slo = append(slo, r.sloMet)
		if len(r.opsMs) == 0 {
			ops = append(ops, float64(wall.Nanoseconds())/1e6)
		}
		ops = append(ops, r.opsMs...)
	}
	tail, pct := tailPercentile(ops, 0.99)
	q1, q3 := quartiles(rates)
	fmt.Fprintf(out, "\n%d repetitions in %.1f s; work_per_s quartiles %.6g .. %.6g; op_ms_tail is p%.1f of %d operations\n",
		len(rates), timed.Seconds(), q1, q3, 100*pct, len(ops))
	return map[string]float64{
		"work_per_s":           median(rates),
		"cpu_us_per_work":      median(cpus),
		"allocs_per_work":      median(allocs),
		"alloc_bytes_per_work": median(bytes),
		"op_ms_p50":            median(ops),
		"op_ms_tail":           tail,
		"result_gbps":          median(gbps),
		"slo_met_ratio":        median(slo),
	}, c
}

// setRun is one run inside a set file.
type setRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
	// Host holds an untraced run's host-time metrics.
	Host map[string]metricValue `json:"host,omitempty"`
}

// setFile is what -out writes and compare reads.
type setFile struct {
	Meta    meta     `json:"meta"`
	Seconds int      `json:"seconds"`
	Runs    []setRun `json:"runs"`
}

// runSet runs every named workload runs times, each run in a child process
// of its own so that memory and caches are per run, and writes the set.
func runSet(names []string, seed int64, runs, seconds, trace int, outPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := setFile{Meta: newMeta(seed), Seconds: seconds}
	for _, name := range names {
		for i := 0; i < runs; i++ {
			s := seed + int64(i)
			cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, s, err)
			}
			if runs == 1 {
				os.Stdout.Write(stdout)
			}
			res, host, err := lastLine(stdout)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, s, err)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: correct=%v failed=%d/%d\n", name, s, res.Correct, res.Failed, res.Attempted)
			set.Runs = append(set.Runs, setRun{Workload: name, Seed: s, Trace: trace, result: res, Host: host})
		}
	}
	raw, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d runs)\n", outPath, len(set.Runs))
	return nil
}

// lastLine decodes the result line that ends a run's output, and the
// host-time line before it if there is one.
func lastLine(stdout []byte) (result, map[string]metricValue, error) {
	lines := strings.Split(strings.TrimRight(string(stdout), "\n"), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	var host map[string]metricValue
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, hostLinePrefix); ok {
			if err := json.Unmarshal([]byte(rest), &host); err != nil {
				return res, nil, fmt.Errorf("host-time line: %w", err)
			}
		}
	}
	return res, host, nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	name := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 10, "how long one run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass, per-layer metrics")
	runs := flag.Int("runs", 1, "runs per workload, with seeds seed, seed+1, ...; more than one writes -out")
	outPath := flag.String("out", outDir+"/results.json", "set file written by -workload all or -runs > 1")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile of this process to the file")
	memProf := flag.String("memprofile", "", "write a heap profile of this process to the file")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *runs < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name|all] [-seed n] [-seconds s] [-trace 0|1] [-runs n] [-out file] | bench compare A.json B.json")
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *trace, *runs, *outPath, *cpuProf, *memProf); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace, runs int, outPath, cpuProf, memProf string) error {
	if name == "all" || runs > 1 {
		names := workloadNames
		if name != "all" {
			names = []string{name}
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		return runSet(names, seed, runs, seconds, trace, outPath)
	}
	if cpuProf != "" {
		f, err := os.Create(cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	res, err := runOne(name, seed, seconds, trace == 1, os.Stdout)
	if err != nil {
		return err
	}
	if memProf != "" {
		f, err := os.Create(memProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}
