package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// counterSnap is one counter in a snapshot.
type counterSnap struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  uint64  `json:"value"`
}

// gaugeSnap is one gauge in a snapshot.
type gaugeSnap struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// histogramSnap is one histogram in a snapshot, summarized.
type histogramSnap struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Count  uint64  `json:"count"`
	Sum    float64 `json:"sum"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Mean   float64 `json:"mean"`
	P50    float64 `json:"p50"`
	P99    float64 `json:"p99"`
}

// snapshot is a point-in-time copy of every metric, ordered by metric
// identity so identical registry states serialize byte-identically.
type snapshot struct {
	Counters   []counterSnap   `json:"counters"`
	Gauges     []gaugeSnap     `json:"gauges"`
	Histograms []histogramSnap `json:"histograms"`
	Spans      []spanRecord    `json:"spans,omitempty"`
}

// snapshot captures the registry's current state.
func (r *Registry) snapshot() *snapshot {
	r.mu.RLock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	r.mu.RUnlock()

	sort.Slice(counters, func(i, j int) bool {
		return metricID(counters[i].name, counters[i].labels) < metricID(counters[j].name, counters[j].labels)
	})
	sort.Slice(gauges, func(i, j int) bool {
		return metricID(gauges[i].name, gauges[i].labels) < metricID(gauges[j].name, gauges[j].labels)
	})
	sort.Slice(hists, func(i, j int) bool {
		return metricID(hists[i].name, hists[i].labels) < metricID(hists[j].name, hists[j].labels)
	})

	snap := &snapshot{
		Counters:   make([]counterSnap, 0, len(counters)),
		Gauges:     make([]gaugeSnap, 0, len(gauges)),
		Histograms: make([]histogramSnap, 0, len(hists)),
		Spans:      r.spans.records(),
	}
	for _, c := range counters {
		snap.Counters = append(snap.Counters, counterSnap{Name: c.name, Labels: c.labels, Value: c.Value()})
	}
	for _, g := range gauges {
		snap.Gauges = append(snap.Gauges, gaugeSnap{Name: g.name, Labels: g.labels, Value: g.Value()})
	}
	for _, h := range hists {
		snap.Histograms = append(snap.Histograms, histogramSnap{
			Name: h.name, Labels: h.labels,
			Count: h.samples(), Sum: h.Sum(),
			Min: h.min(), Max: h.max(), Mean: h.mean(),
			P50: h.quantile(0.50), P99: h.quantile(0.99),
		})
	}
	return snap
}

// writeJSON serializes a snapshot as indented JSON.
func (r *Registry) writeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.snapshot())
}

// WriteFiles dumps the registry to jsonPath (JSON snapshot) and to the same
// path with a ".prom" extension (Prometheus text format) — the --metrics-out
// contract of cmd/lemur and cmd/lemur-bench.
func (r *Registry) WriteFiles(jsonPath string) error {
	var jb strings.Builder
	if err := r.writeJSON(&jb); err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, []byte(jb.String()), 0o644); err != nil {
		return err
	}
	promPath := strings.TrimSuffix(jsonPath, ".json") + ".prom"
	var pb strings.Builder
	if err := r.WritePrometheus(&pb); err != nil {
		return err
	}
	return os.WriteFile(promPath, []byte(pb.String()), 0o644)
}

// escapeLabelValue escapes a label value per the Prometheus text format.
func escapeLabelValue(v string) string {
	return strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(v)
}

// promLabels renders a label set (plus an optional extra label) as
// {k="v",...}, or "" when empty.
func promLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabelValue(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus serializes the registry in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples, histograms
// as cumulative le-bucketed series with _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.snapshot()

	// Group series by metric name so each family gets one TYPE header.
	wroteType := map[string]bool{}
	typeHeader := func(name, kind string) string {
		if wroteType[name] {
			return ""
		}
		wroteType[name] = true
		return fmt.Sprintf("# TYPE %s %s\n", name, kind)
	}

	var b strings.Builder
	for _, c := range snap.Counters {
		b.WriteString(typeHeader(c.Name, "counter"))
		fmt.Fprintf(&b, "%s%s %d\n", c.Name, promLabels(c.Labels), c.Value)
	}
	for _, g := range snap.Gauges {
		b.WriteString(typeHeader(g.Name, "gauge"))
		fmt.Fprintf(&b, "%s%s %s\n", g.Name, promLabels(g.Labels), promFloat(g.Value))
	}

	// Histograms need bucket data, re-read from the live handles in
	// snapshot (sorted) order.
	r.mu.RLock()
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	r.mu.RUnlock()
	sort.Slice(hists, func(i, j int) bool {
		return metricID(hists[i].name, hists[i].labels) < metricID(hists[j].name, hists[j].labels)
	})
	for _, h := range hists {
		b.WriteString(typeHeader(h.name, "histogram"))
		var cum uint64
		last := -1
		for i := range h.buckets {
			if h.buckets[i].Load() > 0 {
				last = i
			}
		}
		for i := 0; i <= last; i++ {
			cum += h.buckets[i].Load()
			fmt.Fprintf(&b, "%s_bucket%s %d\n",
				h.name, promLabels(h.labels, L("le", promFloat(histBounds[i]))), cum)
		}
		fmt.Fprintf(&b, "%s_bucket%s %d\n", h.name, promLabels(h.labels, L("le", "+Inf")), h.samples())
		fmt.Fprintf(&b, "%s_sum%s %s\n", h.name, promLabels(h.labels), promFloat(h.Sum()))
		fmt.Fprintf(&b, "%s_count%s %d\n", h.name, promLabels(h.labels), h.samples())
	}
	_, err := io.WriteString(w, b.String())
	return err
}
