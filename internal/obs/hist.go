package obs

import (
	"math"
	"sync/atomic"
)

// Histograms are bounded: a fixed array of base-2 exponential buckets
// spanning (0, histMin·2^(histBuckets-1)], roughly 1e-9 .. 2.4e12. That range
// covers every unit the system observes — queue delays in seconds, queue
// depths in packets, LP iteration counts, objective values in bits/second —
// with at most one power of two of quantile error, at a constant ~600 bytes
// per series and zero allocation per Observe.
const (
	histBuckets = 72
	histMin     = 1e-9
)

var histBounds = func() [histBuckets]float64 {
	var b [histBuckets]float64
	for i := range b {
		b[i] = histMin * math.Pow(2, float64(i))
	}
	return b
}()

// bucketIndex maps a sample to its bucket: bucket i covers
// (bound[i-1], bound[i]], bucket 0 covers (-inf, histMin], and values past
// the last bound land in the final (overflow) bucket.
//
// The index is ceil(log2(v/histMin)) computed exactly from the float's
// exponent via Frexp: Observe sits on the simulator's per-packet path, and
// Frexp is pure bit manipulation where Log2 is a libm call whose rounding
// can also misplace samples sitting one ulp past a power-of-two bound.
func bucketIndex(v float64) int {
	if v <= histMin {
		return 0
	}
	// v/histMin = frac * 2^exp with frac in [0.5, 1): ceil(log2) is exp-1
	// exactly at a power of two (frac == 0.5), exp otherwise.
	frac, exp := math.Frexp(v / histMin)
	i := exp
	if frac == 0.5 {
		i = exp - 1
	}
	if i < 0 {
		return 0
	}
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// Histogram is a bounded, atomic, exponential-bucket histogram tracking
// count, sum, min, max and bucket occupancy for quantile estimation.
type Histogram struct {
	reg    *Registry
	name   string
	labels []Label

	count   atomic.Uint64
	sumBits atomic.Uint64
	minBits atomic.Uint64
	maxBits atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Histogram returns the histogram for (name, labels), creating it on first
// use.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	var l lookup
	id, ls := l.resolve(name, labels)
	r.mu.RLock()
	h := r.hists[string(id)]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[string(id)]; h == nil {
		h = &Histogram{reg: r, name: name, labels: append([]Label(nil), ls...)}
		h.resetExtrema()
		r.hists[string(id)] = h
	}
	return h
}

func (h *Histogram) resetExtrema() {
	h.minBits.Store(floatBits(math.Inf(1)))
	h.maxBits.Store(floatBits(math.Inf(-1)))
}

func (h *Histogram) reset() {
	h.count.Store(0)
	h.sumBits.Store(0)
	h.resetExtrema()
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// Observe records one sample. No-op when collection is disabled.
func (h *Histogram) Observe(v float64) {
	if h == nil || !h.reg.on.Load() {
		return
	}
	h.count.Add(1)
	h.buckets[bucketIndex(v)].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, floatBits(bitsFloat(old)+v)) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if v >= bitsFloat(old) || h.minBits.CompareAndSwap(old, floatBits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= bitsFloat(old) || h.maxBits.CompareAndSwap(old, floatBits(v)) {
			break
		}
	}
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the running total of all samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return bitsFloat(h.sumBits.Load())
}

// Mean returns the average sample, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Min returns the smallest observed sample, or 0 with no samples.
func (h *Histogram) Min() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return bitsFloat(h.minBits.Load())
}

// Max returns the largest observed sample, or 0 with no samples.
func (h *Histogram) Max() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return bitsFloat(h.maxBits.Load())
}

// Quantile estimates the q-th quantile (q in [0,1]) by linear interpolation
// inside the covering bucket, clamped to the observed min/max. Accuracy is
// bounded by the bucket width (one power of two).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if cum+n >= target {
			lo := 0.0
			if i > 0 {
				lo = histBounds[i-1]
			}
			hi := histBounds[i]
			frac := float64(target-cum) / float64(n)
			v := lo + (hi-lo)*frac
			// Clamp to observed extrema: buckets are coarse, min/max exact.
			if mn := h.Min(); v < mn {
				v = mn
			}
			if mx := h.Max(); v > mx {
				v = mx
			}
			return v
		}
		cum += n
	}
	return h.Max()
}

// P50 estimates the median.
func (h *Histogram) P50() float64 { return h.Quantile(0.50) }

// P99 estimates the 99th percentile.
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }
