package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the schema of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON holds BENCHMARK.json to its contract and to the metric
// tables of metrics.go.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json does not parse into exactly the contract's keys: %v", err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if len(b.Command) == 0 || len(b.Command) > 32 {
		t.Errorf("command has %d strings", len(b.Command))
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	// The driver makes 4 + 22 x workloads runs within 3420 s.
	if runs := 4 + 22*len(b.Workloads); runs*(b.RunSeconds+8) > 3420-300 {
		t.Errorf("%d runs of %d s plus ~8 s of set-up and start-up each, and two builds, do not fit in 3420 s", runs, b.RunSeconds)
	}

	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if n := len(b.Workloads); n < 2 || n > 8 || n != len(workloadNames) {
		t.Fatalf("%d workloads, harness has %d", n, len(workloadNames))
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, harness has %q", i, w.Name, workloadNames[i])
		}
		if w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %s: why differs from workloadWhy", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if workloadUnits[w.Name] == "" {
			t.Errorf("workload %s has no entry in workloadUnits", w.Name)
		}
	}

	if n := len(b.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, harness has %d", n, len(endToEnd))
	}
	hasSetup := false
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		name(m.Name)
		d := endToEnd[i]
		if m.Bound == nil {
			t.Fatalf("%s has no bound", m.Name)
		}
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || *m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d is %+v (bound %v), harness has %+v", i, m, *m.Bound, d)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, *m.Bound)
		}
		maxBound = math.Max(maxBound, *m.Bound)
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s, lower is better")
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Bound != maxBound {
		t.Error("setup_s must carry the largest bound")
	}

	if n := len(b.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics, harness has %d", n, len(perLayer))
	}
	for i, m := range b.PerLayer {
		name(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d is %+v, harness has %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
}

// TestPerLayerNamesWhatItMoves: every per-layer metric says which end-to-end
// metric it should move and on which workload.
func TestPerLayerNamesWhatItMoves(t *testing.T) {
	e2e := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), hostTime...) {
		e2e[d.Name] = true
	}
	valid := map[string]bool{"all": true, allSim: true}
	for _, w := range workloadNames {
		valid[w] = true
	}
	for _, d := range perLayer {
		if !e2e[d.Moves] {
			t.Errorf("%s moves %q, which is neither an end-to-end nor a host-time metric", d.Name, d.Moves)
		}
		if strings.HasPrefix(d.On, "none") {
			continue // a standalone device no workload crosses
		}
		for _, w := range strings.Split(d.On, ",") {
			if !valid[w] {
				t.Errorf("%s: workload %q does not exist", d.Name, w)
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n         int
		want, pct float64
	}{
		{0, 0, 0},
		{8, 4.5, 0.5},         // no percentile above the median has ten beyond it
		{19, 10, 0.5},         // still none
		{20, 10, 0.5},         // index 9 leaves ten beyond
		{100, 90, 0.9},        // p90 is the highest with ten beyond
		{1000, 990, 0.99},     // p99 just qualifies
		{100000, 99000, 0.99}, // p99 is what was asked for
	} {
		got, pct := tailPercentile(seq(c.n), 0.99)
		if got != c.want || math.Abs(pct-c.pct) > 1e-9 {
			t.Errorf("n=%d: got value %v at p%.1f, want %v at p%.1f", c.n, got, 100*pct, c.want, 100*c.pct)
		}
		if c.n >= 20 {
			if beyond := float64(c.n) - got; beyond < 10 {
				t.Errorf("n=%d: only %v samples beyond the reported value", c.n, beyond)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 5, 5}, 5, 5},
		{[]float64{2, 4}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestAttributionSelfTime(t *testing.T) {
	tr := &tracer{workload: "w"}
	tr.spans = []span{
		{Name: "harness.pass", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "placer.Lemur", StartNs: 10, EndNs: 40, Parent: 0},
		{Name: "lp.solve", StartNs: 15, EndNs: 25, Parent: 1},
		{Name: "placer.Optimal", StartNs: 50, EndNs: 90, Parent: 0},
	}
	rows, total := tr.attribution()
	if total != 100 {
		t.Fatalf("traced wall = %v, want 100", total)
	}
	want := map[string]float64{"harness": 30, "placer": 60, "lp": 10}
	sum := 0.0
	for layer, self := range want {
		if rows[layer] == nil || rows[layer].SelfNs != self {
			t.Errorf("layer %s: self = %+v, want %v", layer, rows[layer], self)
		}
		sum += self
	}
	if sum != total {
		t.Errorf("self times add up to %v of %v", sum, total)
	}
	if got := printAttribution(io.Discard, "w", rows, total); got != 1 {
		t.Errorf("printAttribution covers %v of the wall time", got)
	}
	carve(rows, "placer", "nf.ACL", 3, 20)
	if rows["placer"].SelfNs != 40 || rows["nf.ACL"].SelfNs != 20 || !rows["nf.ACL"].Estimated {
		t.Errorf("carve: placer %+v, nf.ACL %+v", rows["placer"], rows["nf.ACL"])
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "work_per_s", Better: "higher", Bound: 0.10}
	tight := func(m float64) summary { return summarize([]float64{m * 0.99, m, m, m, m * 1.01}) }
	wide := func(m float64) summary { return summarize([]float64{m * 0.8, m * 0.9, m, m * 1.1, m * 1.2}) }
	for _, c := range []struct {
		name string
		d    metricDef
		a, b summary
		want string
	}{
		{"slower beyond the bound", lower, tight(100), tight(115), verdictWorse},
		{"slower within the bound", lower, tight(100), tight(108), verdictSame},
		{"faster beyond the spread", lower, tight(100), tight(90), verdictBetter},
		{"faster within the spread", lower, tight(100), tight(99.5), verdictSame},
		{"throughput down beyond the bound", higher, tight(100), tight(85), verdictWorse},
		{"throughput up", higher, tight(100), tight(120), verdictBetter},
		{"spread wider than the bound", lower, wide(100), tight(130), verdictUnresolved},
	} {
		if got, _ := verdictOf(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareSets runs compare on two hand-made set files.
func TestCompareSets(t *testing.T) {
	mk := func(workPerS float64, failed int) *setFile {
		set := &setFile{}
		for i := 0; i < 5; i++ {
			r := setRun{Workload: simFrame, Seed: int64(i)}
			r.Attempted, r.Failed = 10, failed
			r.Metrics = map[string]metricValue{"setup_s": {1 + 0.001*float64(i), "s"}}
			r.Host = map[string]metricValue{"work_per_s": {workPerS * (1 + 0.002*float64(i)), "1/s"}}
			set.Runs = append(set.Runs, r)
		}
		return set
	}
	var out bytes.Buffer
	if worse := compareSets(mk(1000, 0), mk(1005, 0), &out); worse != 0 {
		t.Errorf("equal sets: %d worse rows\n%s", worse, out.String())
	}
	out.Reset()
	if worse := compareSets(mk(1000, 0), mk(700, 0), &out); worse != 1 || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("30 %% less throughput: %d worse rows\n%s", worse, out.String())
	}
	out.Reset()
	if worse := compareSets(mk(1000, 0), mk(1000, 1), &out); worse != 1 {
		t.Errorf("a new failed operation must count as worse: %d worse rows\n%s", worse, out.String())
	}
}

func TestLastLine(t *testing.T) {
	res, host, err := lastLine([]byte("host-time metrics (a table's heading)\n" + hostLinePrefix + "{\"work_per_s\":{\"value\":12.5,\"unit\":\"1/s\"}}\n{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{}}\n"))
	if err != nil || !res.Correct || res.Attempted != 3 || host["work_per_s"].Value != 12.5 {
		t.Errorf("lastLine = %+v, %v, %v", res, host, err)
	}
	if _, _, err := lastLine([]byte("no result here\n")); err == nil {
		t.Error("a run without a result line must be an error")
	}
}

// shrink makes a simulator workload small enough for a smoke test: a
// thousand packets or so a run, a tenth as many per step.
func shrink(s simSpec) simSpec {
	s.scale *= 10
	if s.targetPkts > 0 {
		s.targetPkts = 1000
	}
	if s.flowScale > 0 {
		s.flowScale = 256
	}
	if s.durationSec > 0 {
		s.durationSec, s.faults = 0.08, "crash:nf-server-1@0.005s;overload:nf-server-2@0.02sx2;crash:nf-server-3@0.04s"
	}
	return s
}

// smoke runs set-up, two repetitions and the traced pass of a workload with
// every output check on, and wants no failed operation and every reported
// layer metric to be one perLayer lists.
func smoke(t *testing.T, w workload) {
	t.Helper()
	defer w.close()
	if err := w.setup(7); err != nil {
		t.Fatal(err)
	}
	var first repResult
	for i := 0; i < 2; i++ {
		r, err := w.rep()
		if err != nil {
			t.Fatal(err)
		}
		if r.failed > 0 || r.attempted < 1 || r.work <= 0 {
			t.Fatalf("repetition %d: %d of %d operations failed, work %v: %v", i, r.failed, r.attempted, r.work, r.notes)
		}
		if r.gbps <= 0 || r.sloMet <= 0 {
			t.Errorf("repetition %d: result_gbps %v, slo_met_ratio %v; both must be above 0", i, r.gbps, r.sloMet)
		}
		if i == 0 {
			first = r
		} else if r.digest != first.digest {
			t.Errorf("same-seed repetitions differ: %s then %s", first.digest, r.digest)
		}
	}
	tr := newTracer("smoke")
	layers, c, err := w.traced(tr, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.failed > 0 || c.attempted < 1 {
		t.Errorf("traced pass: %d of %d operations failed: %v", c.failed, c.attempted, c.notes)
	}
	if len(tr.spans) == 0 {
		t.Error("traced pass recorded no span")
	}
	if len(tr.open) != 0 {
		t.Errorf("traced pass left %d spans open", len(tr.open))
	}
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.Name] = true
	}
	for name, v := range layers {
		if !known[name] {
			t.Errorf("traced pass reports %q, which perLayer does not list", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v", name, v)
		}
	}
	if layers["trace.overhead_ratio"] <= 0 {
		t.Error("trace.overhead_ratio is not reported")
	}
}

func TestSmokeSim(t *testing.T) {
	for _, name := range []string{simFrame, simHit, simChurn, simFail} {
		t.Run(name, func(t *testing.T) { smoke(t, &simWorkload{spec: shrink(simSpecs[name])}) })
	}
}

func TestSmokePlace(t *testing.T) {
	defer func(f []int, s [][]int) { placeFleets, placeSets = f, s }(placeFleets, placeSets)
	placeFleets, placeSets = []int{4}, [][]int{{1, 2}, {2, 2, 3, 3}}
	smoke(t, &placeWorkload{})
}

func TestSmokeReconcile(t *testing.T) {
	smoke(t, &reconWorkload{opsPerEpisode: 40})
}

// TestRetuneRejectsStaleText: a tune that no longer matches the canonical
// chain text is an error, not a silently different workload.
func TestRetuneRejectsStaleText(t *testing.T) {
	if _, err := retune("chain c { x = NAT() }", []tune{{"Dedup()", "Dedup(cache = 1)"}}); err == nil {
		t.Error("retune accepted a tune with nothing to match")
	}
	got, err := retune("a = NAT() b = NAT()", []tune{{"NAT()", "NAT(entries = 9)"}})
	if err != nil || got != "a = NAT(entries = 9) b = NAT(entries = 9)" {
		t.Errorf("retune = %q, %v", got, err)
	}
}
