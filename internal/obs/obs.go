// Package obs is Lemur's dependency-free observability layer: a
// goroutine-safe metrics registry (counters, gauges, bounded histograms with
// quantile estimation) plus lightweight span tracing, exported as JSON and
// Prometheus text format.
//
// Design constraints, in order:
//
//   - Near-zero cost when disabled. Every handle operation starts with one
//     atomic load of the registry's enable flag; a disabled registry does no
//     other work, so the hot layers (per-frame counters in the pisa/bess/
//     smartnic runtimes, per-step histograms in the simulator) can stay wired
//     unconditionally without moving the benchmarks.
//   - Goroutine-safe. Experiment runners place and measure concurrently
//     (experiments.Figure2Panel); all value updates are sync/atomic and
//     handle lookup takes a short RWMutex.
//   - Deterministic export. Snapshots order metrics by identity and carry no
//     timestamps, so two identical (seeded) runs serialize byte-identically —
//     the property the deterministic-simulation regression test pins down.
//
// Typical wiring hoists handles to package vars so the per-event cost is one
// atomic branch plus one atomic add:
//
//	var framesIn = obs.C("lemur_frames_total", obs.L("platform", "pisa"))
//	...
//	framesIn.Inc()
package obs

import (
	"sync"
	"sync/atomic"
)

// Label is one metric dimension (a Prometheus-style key/value pair).
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Registry owns a metric namespace. The zero value is not usable; call New.
type Registry struct {
	on atomic.Bool

	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    *spanRing
}

// New builds an empty, disabled registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		spans:    newSpanRing(defaultSpanRingCap),
	}
}

var defaultRegistry = New()

// Default returns the process-wide registry the instrumented packages use.
func Default() *Registry { return defaultRegistry }

// Enable turns metric collection on for the default registry.
func Enable() { defaultRegistry.Enable() }

// Disable turns metric collection off for the default registry.
func Disable() { defaultRegistry.Disable() }

// Reset zeroes every metric in the default registry.
func Reset() { defaultRegistry.Reset() }

// C returns (creating if needed) a counter in the default registry.
func C(name string, labels ...Label) *Counter { return defaultRegistry.Counter(name, labels...) }

// G returns (creating if needed) a gauge in the default registry.
func G(name string, labels ...Label) *Gauge { return defaultRegistry.Gauge(name, labels...) }

// H returns (creating if needed) a histogram in the default registry.
func H(name string, labels ...Label) *Histogram { return defaultRegistry.Histogram(name, labels...) }

// Span starts a span on the default registry (nil — and free — when
// collection is disabled; all Span methods are nil-safe).
func Span(name string) *ActiveSpan { return defaultRegistry.StartSpan(name) }

// Enable turns metric collection on.
func (r *Registry) Enable() { r.on.Store(true) }

// Disable turns metric collection off. Existing handles stay valid; their
// updates become no-ops.
func (r *Registry) Disable() { r.on.Store(false) }

// Reset zeroes all counters, gauges, histograms and drops recorded spans.
// Registered handles stay valid.
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.hists {
		h.reset()
	}
	r.spans.reset()
}

// metricID renders the canonical identity of a metric: name plus its sorted
// label pairs. Two handles with the same id share one time series.
func metricID(name string, labels []Label) string {
	return string(appendID(nil, name, labels))
}

// appendID appends metricID(name, labels) to buf.
func appendID(buf []byte, name string, labels []Label) []byte {
	buf = append(buf, name...)
	if len(labels) == 0 {
		return buf
	}
	buf = append(buf, '{')
	for i, l := range labels {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, l.Key...)
		buf = append(buf, '=')
		buf = append(buf, l.Value...)
	}
	return append(buf, '}')
}

// stackLabels is how many labels a lookup sorts without allocating; a
// series with more takes a heap copy.
const stackLabels = 8

// lookup is the stack space one handle lookup renders its id in: the
// labels sorted by key and the id. A lookup that hits the registry
// allocates nothing; a miss copies what the new series keeps.
type lookup struct {
	labels [stackLabels]Label
	id     [128]byte
}

// resolve sorts labels into l (stably, by key, so differently-ordered
// label lists resolve to the same series) and renders their series id.
func (l *lookup) resolve(name string, labels []Label) (id []byte, sorted []Label) {
	if len(labels) > stackLabels {
		sorted = append([]Label(nil), labels...)
	} else {
		sorted = l.labels[:copy(l.labels[:], labels)]
	}
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].Key < sorted[j-1].Key; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return appendID(l.id[:0], name, sorted), sorted
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	reg    *Registry
	name   string
	labels []Label
	v      atomic.Uint64
}

// Counter returns the counter for (name, labels), creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	var l lookup
	id, ls := l.resolve(name, labels)
	r.mu.RLock()
	c := r.counters[string(id)]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[string(id)]; c == nil {
		c = &Counter{reg: r, name: name, labels: append([]Label(nil), ls...)}
		r.counters[string(id)] = c
	}
	return c
}

// Add increments the counter by n. No-op when collection is disabled.
func (c *Counter) Add(n uint64) {
	if c == nil || !c.reg.on.Load() {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float-valued metric that can move in both directions.
type Gauge struct {
	reg    *Registry
	name   string
	labels []Label
	bits   atomic.Uint64 // math.Float64bits
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	var l lookup
	id, ls := l.resolve(name, labels)
	r.mu.RLock()
	g := r.gauges[string(id)]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[string(id)]; g == nil {
		g = &Gauge{reg: r, name: name, labels: append([]Label(nil), ls...)}
		r.gauges[string(id)] = g
	}
	return g
}

// Set stores v. No-op when collection is disabled.
func (g *Gauge) Set(v float64) {
	if g == nil || !g.reg.on.Load() {
		return
	}
	g.bits.Store(floatBits(v))
}

// Value returns the current gauge reading.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return bitsFloat(g.bits.Load())
}
