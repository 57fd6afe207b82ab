package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func newEnabled() *Registry {
	r := New()
	r.Enable()
	return r
}

func TestCounterBasics(t *testing.T) {
	r := newEnabled()
	c := r.Counter("lemur_frames_total", L("platform", "pisa"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same (name, labels) in any order resolves to the same series.
	c2 := r.Counter("lemur_frames_total", L("platform", "pisa"))
	if c2 != c {
		t.Fatalf("expected identical handle for identical identity")
	}
	other := r.Counter("lemur_frames_total", L("platform", "bess"))
	if other == c {
		t.Fatalf("different labels must be a different series")
	}
}

func TestLabelOrderCanonical(t *testing.T) {
	r := newEnabled()
	a := r.Counter("m", L("a", "1"), L("b", "2"))
	b := r.Counter("m", L("b", "2"), L("a", "1"))
	if a != b {
		t.Fatalf("label order must not create distinct series")
	}
}

func TestDisabledIsNoOp(t *testing.T) {
	r := New() // disabled
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	c.Inc()
	g.Set(3)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatalf("disabled registry recorded values")
	}
	if s := r.StartSpan("x"); s != nil {
		t.Fatalf("disabled registry returned non-nil span")
	}
	// Nil-span methods must be safe.
	var s *ActiveSpan
	s.SetAttr("k", "v").SetAttrInt("i", 1).SetAttrFloat("f", 2).SetAttrBool("b", true)
	s.End()
}

func TestHistogramStats(t *testing.T) {
	r := newEnabled()
	h := r.Histogram("lat")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 5050 {
		t.Fatalf("sum = %v", h.Sum())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if h.Mean() != 50.5 {
		t.Fatalf("mean = %v", h.Mean())
	}
	// Exponential buckets give at most a factor-of-2 quantile error.
	p50 := h.P50()
	if p50 < 25 || p50 > 100 {
		t.Fatalf("p50 = %v outside [25,100]", p50)
	}
	p99 := h.P99()
	if p99 < 50 || p99 > 100 {
		t.Fatalf("p99 = %v outside [50,100]", p99)
	}
	if p99 < p50 {
		t.Fatalf("p99 (%v) < p50 (%v)", p99, p50)
	}
}

func TestHistogramSingleSampleQuantiles(t *testing.T) {
	r := newEnabled()
	h := r.Histogram("one")
	h.Observe(42)
	// Clamping to observed extrema makes every quantile exact here.
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 42 {
			t.Fatalf("Quantile(%v) = %v, want 42", q, got)
		}
	}
}

func TestHistogramEmptyAndTinyValues(t *testing.T) {
	r := newEnabled()
	h := r.Histogram("empty")
	if h.P50() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatalf("empty histogram stats must be zero")
	}
	h.Observe(0)           // below first bound
	h.Observe(1e-12)       // below first bound
	h.Observe(math.Inf(1)) // overflow bucket
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestBucketIndexMonotone(t *testing.T) {
	prev := -1
	for _, v := range []float64{0, 1e-10, 1e-9, 2e-9, 1e-6, 1e-3, 1, 1e3, 1e9, 1e15} {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex not monotone at %v: %d < %d", v, i, prev)
		}
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucketIndex(%v) = %d out of range", v, i)
		}
		prev = i
	}
	// Boundary: a sample exactly on a bound falls in that bucket (le semantics).
	for i := 0; i < histBuckets; i++ {
		if got := bucketIndex(histBounds[i]); got != i {
			t.Fatalf("bucketIndex(bound[%d]) = %d", i, got)
		}
	}
}

func TestSpansRecord(t *testing.T) {
	r := newEnabled()
	sp := r.StartSpan("placer.place")
	sp.SetAttr("scheme", "Lemur").SetAttrBool("feasible", true)
	sp.End()
	snap := r.Snapshot()
	if len(snap.Spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(snap.Spans))
	}
	got := snap.Spans[0]
	if got.Name != "placer.place" || len(got.Attrs) != 2 {
		t.Fatalf("bad span record: %+v", got)
	}
	if got.DurationSec < 0 {
		t.Fatalf("negative duration")
	}
	// Span durations also land in the span histogram.
	if h := r.Histogram("lemur_span_seconds", L("span", "placer.place")); h.Count() != 1 {
		t.Fatalf("span histogram count = %d", h.Count())
	}
}

func TestSpanRingBounded(t *testing.T) {
	r := newEnabled()
	for i := 0; i < defaultSpanRingCap+10; i++ {
		r.StartSpan(fmt.Sprintf("s%d", i)).End()
	}
	recs := r.spans.records()
	if len(recs) != defaultSpanRingCap {
		t.Fatalf("ring len = %d, want %d", len(recs), defaultSpanRingCap)
	}
	// Oldest-first: the first surviving record is the 10th span started.
	if recs[0].Name != "s10" {
		t.Fatalf("oldest record = %s, want s10", recs[0].Name)
	}
	if recs[len(recs)-1].Name != fmt.Sprintf("s%d", defaultSpanRingCap+9) {
		t.Fatalf("newest record = %s", recs[len(recs)-1].Name)
	}
}

func TestReset(t *testing.T) {
	r := newEnabled()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	c.Inc()
	g.Set(7)
	h.Observe(3)
	r.StartSpan("s").End()
	r.Reset()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("reset did not zero values")
	}
	if len(r.spans.records()) != 0 {
		t.Fatalf("reset did not drop spans")
	}
	// Handles stay live after reset.
	c.Inc()
	if c.Value() != 1 {
		t.Fatalf("handle dead after reset")
	}
	// Extrema must re-initialize, not stick at old min/max.
	h.Observe(10)
	if h.Min() != 10 || h.Max() != 10 {
		t.Fatalf("extrema not reset: min=%v max=%v", h.Min(), h.Max())
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := newEnabled()
	const goroutines = 8
	const per = 2000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := r.Counter("par_total", L("g", fmt.Sprintf("%d", id%2)))
			h := r.Histogram("par_lat")
			g := r.Gauge("par_gauge")
			for j := 0; j < per; j++ {
				c.Inc()
				h.Observe(float64(j%17) + 0.5)
				g.Set(float64(j))
				if j%100 == 0 {
					r.StartSpan("par.span").End()
					_ = r.Snapshot()
				}
			}
		}(i)
	}
	wg.Wait()
	var total uint64
	for _, cs := range r.Snapshot().Counters {
		if cs.Name == "par_total" {
			total += cs.Value
		}
	}
	if total != goroutines*per {
		t.Fatalf("counter total = %d, want %d", total, goroutines*per)
	}
	if n := r.Histogram("par_lat").Count(); n != goroutines*per {
		t.Fatalf("histogram count = %d, want %d", n, goroutines*per)
	}
	if v := r.Gauge("par_gauge").Value(); v != per-1 {
		t.Fatalf("gauge = %v, want %d (every goroutine's last Set)", v, per-1)
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	run := func() []byte {
		r := newEnabled()
		// Create in scrambled order; snapshot must sort.
		r.Counter("z_total").Add(1)
		r.Counter("a_total", L("p", "x")).Add(2)
		r.Counter("a_total", L("p", "b")).Add(3)
		r.Gauge("g2").Set(1.25)
		r.Gauge("g1").Set(-4)
		r.Histogram("h", L("k", "v")).Observe(2)
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshots differ:\n%s\n---\n%s", a, b)
	}
	var snap Snapshot
	if err := json.Unmarshal(a, &snap); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(snap.Counters) != 3 || len(snap.Gauges) != 2 || len(snap.Histograms) != 1 {
		t.Fatalf("unexpected snapshot shape: %+v", snap)
	}
	// Sorted by identity: a_total{p=b} < a_total{p=x} < z_total.
	if snap.Counters[0].Value != 3 || snap.Counters[1].Value != 2 || snap.Counters[2].Value != 1 {
		t.Fatalf("counters not sorted by identity: %+v", snap.Counters)
	}
}

// promLine matches a sample line of the text exposition format.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+$`)

func TestWritePrometheusFormat(t *testing.T) {
	r := newEnabled()
	r.Counter("lemur_frames_total", L("platform", "pisa")).Add(10)
	r.Counter("lemur_frames_total", L("platform", "bess")).Add(20)
	r.Gauge("lemur_compile_lines", L("kind", "p4")).Set(123)
	h := r.Histogram("lemur_queue_delay_seconds", L("subgroup", "sg0"))
	for i := 0; i < 50; i++ {
		h.Observe(float64(i) * 1e-6)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()

	typeCount := map[string]int{}
	var lastCum uint64
	var sawInf, sawSum, sawCount bool
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typeCount[parts[2]]++
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("malformed sample line: %q", line)
		}
		if strings.HasPrefix(line, "lemur_queue_delay_seconds_bucket") {
			if !strings.Contains(line, `le="`) {
				t.Fatalf("bucket line missing le label: %q", line)
			}
			var v uint64
			fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &v)
			if v < lastCum {
				t.Fatalf("bucket counts not cumulative: %q after %d", line, lastCum)
			}
			lastCum = v
			if strings.Contains(line, `le="+Inf"`) {
				sawInf = true
				if v != 50 {
					t.Fatalf("+Inf bucket = %d, want 50", v)
				}
			}
		}
		if strings.HasPrefix(line, "lemur_queue_delay_seconds_sum") {
			sawSum = true
		}
		if strings.HasPrefix(line, "lemur_queue_delay_seconds_count ") ||
			strings.HasPrefix(line, "lemur_queue_delay_seconds_count{") {
			sawCount = true
		}
	}
	// One TYPE header per family even with multiple label sets.
	if typeCount["lemur_frames_total"] != 1 {
		t.Fatalf("lemur_frames_total TYPE headers = %d", typeCount["lemur_frames_total"])
	}
	if !sawInf || !sawSum || !sawCount {
		t.Fatalf("histogram output incomplete: inf=%v sum=%v count=%v\n%s", sawInf, sawSum, sawCount, out)
	}
}

func TestEscapeLabelValue(t *testing.T) {
	in := "a\\b\"c\nd"
	want := `a\\b\"c\nd`
	if got := escapeLabelValue(in); got != want {
		t.Fatalf("escape = %q, want %q", got, want)
	}
}

func TestDefaultRegistryHelpers(t *testing.T) {
	Reset()
	Enable()
	defer func() { Disable(); Reset() }()
	C("default_c").Inc()
	G("default_g").Set(2)
	H("default_h").Observe(1)
	sp := Span("default.span")
	if sp == nil {
		t.Fatalf("Span returned nil while enabled")
	}
	sp.End()
	if Default().Counter("default_c").Value() != 1 {
		t.Fatalf("package-level helpers not wired to default registry")
	}
}

// TestBucketIndexMatchesDefinition: the Frexp-based index must agree with a
// direct scan of the bucket bounds — the semantic definition of "bucket i
// covers (bound[i-1], bound[i]]" — across log-uniform random samples, exact
// powers of two, and their one-ulp neighbors where a libm Log2 can misround.
func TestBucketIndexMatchesDefinition(t *testing.T) {
	scanIndex := func(v float64) int {
		for i := 0; i < histBuckets; i++ {
			if v <= histBounds[i] {
				return i
			}
		}
		return histBuckets - 1
	}
	check := func(v float64) {
		if got, want := bucketIndex(v), scanIndex(v); got != want {
			t.Fatalf("bucketIndex(%g) = %d, scan says %d", v, got, want)
		}
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 20000; i++ {
		// Log-uniform across the full range plus both overflow directions.
		check(histMin * math.Pow(2, rng.Float64()*80-4))
	}
	for i := 0; i < histBuckets; i++ {
		b := histMin * math.Pow(2, float64(i))
		check(b)
		check(math.Nextafter(b, 0))
		check(math.Nextafter(b, math.Inf(1)))
	}
}

// TestHandleHitAllocsNothing: resolving an existing series — counter, gauge
// or histogram, with labels in any order — allocates nothing; only a miss
// copies what the new series keeps.
func TestHandleHitAllocsNothing(t *testing.T) {
	r := newEnabled()
	labels := []Label{L("scheme", "Lemur"), L("outcome", "feasible"), L("platform", "pisa")}
	swapped := []Label{labels[2], labels[0], labels[1]}
	c := r.Counter("lemur_placer_placements_total", labels...)
	g := r.Gauge("lemurd_desired_chains", labels...)
	h := r.Histogram("lemurd_apply_latency_seconds", labels...)
	for name, hit := range map[string]func(){
		"counter":   func() { c.Inc(); _ = r.Counter("lemur_placer_placements_total", swapped...) },
		"gauge":     func() { _ = r.Gauge("lemurd_desired_chains", swapped...) },
		"histogram": func() { _ = r.Histogram("lemurd_apply_latency_seconds", swapped...) },
		"bare":      func() { _ = r.Counter("lemur_compiles_total") },
	} {
		if n := testing.AllocsPerRun(100, hit); n != 0 {
			t.Errorf("%s hit: %v allocations, want 0", name, n)
		}
	}
	if r.Counter("lemur_placer_placements_total", swapped...) != c || r.Gauge("lemurd_desired_chains", swapped...) != g ||
		r.Histogram("lemurd_apply_latency_seconds", swapped...) != h {
		t.Fatal("a reordered label list resolved to another series")
	}
	// A handle keeps its own copy of the labels it was created with.
	labels[0].Value = "Optimal"
	if got := c.labels[2]; got.Key != "scheme" || got.Value != "Lemur" {
		t.Fatalf("the series' labels alias the caller's slice: %+v", c.labels)
	}
	// More labels than a lookup sorts on the stack still resolve.
	var down, up []Label
	for i := 0; i < 10; i++ {
		down = append(down, L(fmt.Sprintf("k%d", 9-i), "v"))
		up = append(up, L(fmt.Sprintf("k%d", i), "v"))
	}
	if w := r.Counter("wide", down...); w != r.Counter("wide", up...) || w.labels[0].Key != "k0" || down[0].Key != "k9" {
		t.Fatal("a wide series did not resolve to one sorted series, or sorted its caller's labels")
	}
}
