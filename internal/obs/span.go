package obs

import (
	"strconv"
	"sync"
	"time"
)

// Span tracing is deliberately minimal: a span is a named wall-clock
// interval with string attributes. Ending a span records its duration into
// the "lemur_span_seconds" histogram (labelled by span name) and appends it
// to a bounded ring of recent spans included in JSON snapshots — enough to
// answer "what did the Placer decide, and how long did each stage take"
// without a tracing backend.

// defaultSpanRingCap bounds the recent-span ring.
const defaultSpanRingCap = 256

// spanRecord is one finished span as it appears in a snapshot.
type spanRecord struct {
	Name        string  `json:"name"`
	Attrs       []Label `json:"attrs,omitempty"`
	DurationSec float64 `json:"duration_sec"`
}

type spanRing struct {
	mu    sync.Mutex
	buf   []spanRecord
	next  int
	count int
}

func newSpanRing(capacity int) *spanRing {
	return &spanRing{buf: make([]spanRecord, capacity)}
}

func (sr *spanRing) add(rec spanRecord) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	sr.buf[sr.next] = rec
	sr.next = (sr.next + 1) % len(sr.buf)
	if sr.count < len(sr.buf) {
		sr.count++
	}
}

func (sr *spanRing) reset() {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	sr.next, sr.count = 0, 0
}

// records returns the ring contents oldest-first.
func (sr *spanRing) records() []spanRecord {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	out := make([]spanRecord, 0, sr.count)
	start := sr.next - sr.count
	if start < 0 {
		start += len(sr.buf)
	}
	for i := 0; i < sr.count; i++ {
		out = append(out, sr.buf[(start+i)%len(sr.buf)])
	}
	return out
}

// ActiveSpan is an in-flight span. A nil *ActiveSpan (returned when the
// registry is disabled) is valid: every method is a nil-safe no-op, so
// callers never branch on the enable state.
type ActiveSpan struct {
	reg   *Registry
	name  string
	start time.Time
	attrs []Label
}

// startSpan begins a span, or returns nil when collection is disabled.
func (r *Registry) startSpan(name string) *ActiveSpan {
	if r == nil || !r.on.Load() {
		return nil
	}
	return &ActiveSpan{reg: r, name: name, start: time.Now()}
}

// SetAttr attaches a string attribute; returns the span for chaining.
func (s *ActiveSpan) SetAttr(key, value string) *ActiveSpan {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Label{Key: key, Value: value})
	return s
}

// SetAttrInt attaches an integer attribute.
func (s *ActiveSpan) SetAttrInt(key string, v int) *ActiveSpan {
	return s.SetAttr(key, strconv.Itoa(v))
}

// SetAttrFloat attaches a float attribute (shortest round-trip encoding).
func (s *ActiveSpan) SetAttrFloat(key string, v float64) *ActiveSpan {
	return s.SetAttr(key, strconv.FormatFloat(v, 'g', -1, 64))
}

// SetAttrBool attaches a boolean attribute.
func (s *ActiveSpan) SetAttrBool(key string, v bool) *ActiveSpan {
	return s.SetAttr(key, strconv.FormatBool(v))
}

// End finishes the span, recording its duration histogram sample and its
// ring entry.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start).Seconds()
	s.reg.histogram("lemur_span_seconds", L("span", s.name)).Observe(d)
	s.reg.spans.add(spanRecord{Name: s.name, Attrs: s.attrs, DurationSec: d})
}
