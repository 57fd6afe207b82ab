package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call (spans inside the program are a later issue). Times are nanoseconds
// since the tracer was made; Parent is an index into the span list, -1 for a
// root.
type span struct {
	Name     string `json:"name"`
	StartNs  int64  `json:"start"`
	EndNs    int64  `json:"end"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
}

// tracer keeps spans in memory until the traced pass ends. A nil tracer
// records nothing, which is how the untraced passes run the same code. It
// is used from one goroutine only.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int // stack of open span indices
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span as a child of the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Workload: t.workload,
		StartNs: time.Since(t.t0).Nanoseconds()})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open)
	t.spans[t.open[n-1]].EndNs = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:n-1]
}

// layerOf maps a span name to its layer: the module name before the first
// dot ("placer.Optimal" belongs to layer "placer"), except NF bodies, which
// are layers of their own ("nf.Dedup").
func layerOf(name string) string {
	if strings.HasPrefix(name, "nf.") {
		return name
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// layerRow is one line of the attribution table.
type layerRow struct {
	Layer  string
	Count  int
	BusyNs float64
	SelfNs float64
	// Estimated marks a row that was not measured by its own spans but
	// carved out of its parent layer (NF bodies timed by sampling wrappers,
	// decode and NSH costs from a direct timing multiplied by a count).
	Estimated bool
}

// attribution folds spans into per-layer rows. A span's self time is its
// duration minus the part its children cover; a layer's busy time counts
// only spans whose parent is in another layer, so nesting inside one layer
// is not counted twice.
func (t *tracer) attribution() (rows map[string]*layerRow, totalNs float64) {
	rows = map[string]*layerRow{}
	childNs := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childNs[s.Parent] += s.EndNs - s.StartNs
		}
	}
	for i, s := range t.spans {
		l := layerOf(s.Name)
		r := rows[l]
		if r == nil {
			r = &layerRow{Layer: l}
			rows[l] = r
		}
		d := s.EndNs - s.StartNs
		r.Count++
		r.SelfNs += float64(d - childNs[i])
		if s.Parent < 0 || layerOf(t.spans[s.Parent].Name) != l {
			r.BusyNs += float64(d)
		}
		if s.Parent < 0 {
			totalNs += float64(d)
		}
	}
	return rows, totalNs
}

// carve moves ns of self time from layer parent to a new estimated row.
func carve(rows map[string]*layerRow, parent, layer string, count int, ns float64) {
	if ns <= 0 {
		return
	}
	if p := rows[parent]; p != nil {
		p.SelfNs -= ns
	}
	r := rows[layer]
	if r == nil {
		r = &layerRow{Layer: layer, Estimated: true}
		rows[layer] = r
	}
	r.Count += count
	r.BusyNs += ns
	r.SelfNs += ns
}

// printAttribution writes the table, largest self time first, and returns
// the share of totalNs the rows' self times add up to (1 when every
// nanosecond of the traced wall time has a layer).
func printAttribution(w io.Writer, workload string, rows map[string]*layerRow, totalNs float64) float64 {
	list := make([]*layerRow, 0, len(rows))
	for _, r := range rows {
		list = append(list, r)
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].SelfNs != list[j].SelfNs {
			return list[i].SelfNs > list[j].SelfNs
		}
		return list[i].Layer < list[j].Layer
	})
	fmt.Fprintf(w, "\nattribution for %s (traced wall %.1f ms; ~ marks rows estimated and carved out of the layer that contains them)\n", workload, totalNs/1e6)
	fmt.Fprintf(w, "  %-22s %10s %12s %12s %7s\n", "layer", "count", "busy_ms", "self_ms", "share")
	sum := 0.0
	for _, r := range list {
		mark := " "
		if r.Estimated {
			mark = "~"
		}
		fmt.Fprintf(w, "  %-21s%s %10d %12.3f %12.3f %6.1f%%\n", r.Layer, mark, r.Count,
			r.BusyNs/1e6, r.SelfNs/1e6, 100*r.SelfNs/totalNs)
		sum += r.SelfNs
	}
	fmt.Fprintf(w, "  %-22s %10s %12s %12.3f %6.1f%%\n", "sum of self times", "", "", sum/1e6, 100*sum/totalNs)
	return sum / totalNs
}

// traceFile is what bench/out/<workload>.trace.json holds.
type traceFile struct {
	Meta  meta   `json:"meta"`
	Spans []span `json:"spans"`
}

// write stores the spans under dir and returns the file's path.
func (t *tracer) write(dir string, m meta) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := dir + "/" + t.workload + ".trace.json"
	raw, err := json.Marshal(traceFile{Meta: m, Spans: t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}

// spanMedians is the median duration in ns of the spans of each name.
func spanMedians(tr *tracer) map[string]float64 {
	by := map[string][]float64{}
	for _, s := range tr.spans {
		by[s.Name] = append(by[s.Name], float64(s.EndNs-s.StartNs))
	}
	med := make(map[string]float64, len(by))
	for name, v := range by {
		med[name] = median(v)
	}
	return med
}

// adopt appends another tracer's spans, moved onto this tracer's clock.
func (t *tracer) adopt(o *tracer) {
	shift := o.t0.Sub(t.t0).Nanoseconds()
	base := len(t.spans)
	for _, s := range o.spans {
		s.StartNs += shift
		s.EndNs += shift
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}
