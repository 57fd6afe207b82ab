package pisa

import (
	"strconv"
	"sync"
	"sync/atomic"

	"lemur/internal/hw"
	"lemur/internal/obs"
)

// The Placer treats Compile as a slow black box and consults it on every
// candidate placement — across schemes, coalescing variants and δ points the
// same switch program recurs thousands of times per sweep (δ only changes
// t_min, never the table list). CompileCache memoizes verdicts behind a
// content key so identical programs compile exactly once per process.
//
// Keys are the canonical serialization of the stage-packing inputs: the
// switch's per-stage budgets plus every table's name, SRAM/TCAM demand and
// dependency list. Two placements that lower to the same logical table list
// therefore share one verdict even when they come from different schemes,
// different δ points, or freshly rebuilt chain graphs.

// CacheStats is a point-in-time view of a cache's effectiveness.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// verdict is one memoized compile outcome: Compile's (*Binary, error)
// return, kept so that neither has to be rebuilt to answer a hit.
type verdict struct {
	stageOf []int // nil when the compile failed before producing a layout
	stages  int   // needed stages (valid whenever stageOf != nil)
	err     error // Compile's error; immutable, so every hit returns this one
}

// binary materializes a fresh Binary so callers can never corrupt the cached
// layout.
func (v *verdict) binary() *Binary {
	if v.stageOf == nil {
		return nil
	}
	return &Binary{StageOf: append([]int(nil), v.stageOf...), Stages: v.stages}
}

// CompileCache is a goroutine-safe, bounded memo table over Compile. The
// zero value is not usable; call NewCompileCache.
type CompileCache struct {
	mu sync.Mutex
	m  map[string]*verdict
	// capEntries bounds the map; on overflow the whole generation is flushed
	// (deterministic and O(1) amortized, unlike LRU bookkeeping on the hot
	// path). A δ sweep's working set is far below the default cap, so
	// flushes only fire on pathological workloads.
	capEntries int

	hits, misses, evictions atomic.Uint64
}

// DefaultCacheEntries bounds the shared cache. Verdict entries are small
// (key bytes dominate at a few hundred bytes each), so 64k entries stay in
// the tens of MB even for adversarial workloads.
const DefaultCacheEntries = 65536

// NewCompileCache builds an empty cache bounded to capEntries (<=0 means
// DefaultCacheEntries).
func NewCompileCache(capEntries int) *CompileCache {
	if capEntries <= 0 {
		capEntries = DefaultCacheEntries
	}
	return &CompileCache{m: make(map[string]*verdict), capEntries: capEntries}
}

// Hoisted metric handles (one atomic branch + add each; see internal/obs).
var (
	mCacheHit   = obs.C("lemur_pisa_compile_cache_total", obs.L("result", "hit"))
	mCacheMiss  = obs.C("lemur_pisa_compile_cache_total", obs.L("result", "miss"))
	mCacheEvict = obs.C("lemur_pisa_compile_cache_evictions_total")
)

// Compile returns the memoized verdict for (spec, tables), packing the
// program on first sight. Concurrent misses on the same key may compile the
// program more than once; verdicts are content-determined, so whichever
// insert wins the race stores the identical outcome.
func (c *CompileCache) Compile(spec *hw.PISASpec, tables []LogicalTable) (*Binary, error) {
	v := c.verdictOf(appendCacheKey(make([]byte, 0, 32+len(tables)*24), spec, tables), spec, tables)
	return v.binary(), v.err
}

// Stages is Compile for a caller that wants only the verdict — the Placer's
// stage check, which asks once per candidate placement: the stage count (0
// when the compile failed before producing a layout) and Compile's error. A
// hit allocates nothing: no Binary is materialized, and the cache key is
// built in *key, the caller's buffer, which Stages reuses and may grow. The
// cache keeps neither key nor tables past the call, so the caller may
// overwrite both.
func (c *CompileCache) Stages(spec *hw.PISASpec, tables []LogicalTable, key *[]byte) (int, error) {
	*key = appendCacheKey((*key)[:0], spec, tables)
	v := c.verdictOf(*key, spec, tables)
	return v.stages, v.err
}

// verdictOf looks key up, counting the hit or miss, and on a miss compiles
// the program and stores its verdict under a copy of key.
func (c *CompileCache) verdictOf(key []byte, spec *hw.PISASpec, tables []LogicalTable) *verdict {
	c.mu.Lock()
	v := c.m[string(key)]
	c.mu.Unlock()
	if v != nil {
		c.hits.Add(1)
		mCacheHit.Inc()
		return v
	}
	c.misses.Add(1)
	mCacheMiss.Inc()

	bin, err := Compile(spec, tables)
	v = &verdict{err: err}
	if bin != nil {
		// Compile's Binary is this call's alone; callers get copies.
		v.stageOf, v.stages = bin.StageOf, bin.Stages
	}

	c.mu.Lock()
	if len(c.m) >= c.capEntries {
		n := uint64(len(c.m))
		c.evictions.Add(n)
		mCacheEvict.Add(n)
		c.m = make(map[string]*verdict)
	}
	c.m[string(key)] = v
	c.mu.Unlock()
	return v
}

// Compile-cache effectiveness gauges. Counters already track hit/miss flow
// (lemur_pisa_compile_cache_total); the gauges snapshot the cache's current
// state — including the derived hit rate — so a -metrics-out file or a
// Prometheus scrape shows cache effectiveness without post-processing.
// Package-level handles: they describe the process-wide shared cache, the
// one every placement stage check routes through.
var (
	gCacheHits      = obs.G("lemur_pisa_compile_cache_hits")
	gCacheMisses    = obs.G("lemur_pisa_compile_cache_misses")
	gCacheEvictions = obs.G("lemur_pisa_compile_cache_evictions")
	gCacheEntries   = obs.G("lemur_pisa_compile_cache_entries")
	gCacheHitRate   = obs.G("lemur_pisa_compile_cache_hit_rate")
)

// SyncObs publishes the cache's current Stats (hits, misses, evictions,
// entries, hit rate) to the obs registry gauges. Call before exporting
// metrics; gauges overwrite, so the last cache to sync wins — in practice
// that is always the shared cache.
func (c *CompileCache) SyncObs() {
	st := c.Stats()
	gCacheHits.Set(float64(st.Hits))
	gCacheMisses.Set(float64(st.Misses))
	gCacheEvictions.Set(float64(st.Evictions))
	gCacheEntries.Set(float64(st.Entries))
	gCacheHitRate.Set(st.HitRate())
}

// Stats snapshots the hit/miss/eviction counters.
func (c *CompileCache) Stats() CacheStats {
	c.mu.Lock()
	entries := len(c.m)
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
	}
}

// Reset drops every entry and zeroes the counters (tests and cold-vs-warm
// benchmarking).
func (c *CompileCache) Reset() {
	c.mu.Lock()
	c.m = make(map[string]*verdict)
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
}

// appendCacheKey appends the canonical form of the compile inputs to b.
// Table order matters (Deps index into the slice), so the serialization is
// positional.
func appendCacheKey(b []byte, spec *hw.PISASpec, tables []LogicalTable) []byte {
	b = strconv.AppendInt(b, int64(spec.Stages), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(spec.SRAMPerStage), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(spec.TCAMPerStage), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(spec.TablesPerStage), 10)
	for i := range tables {
		t := &tables[i]
		b = append(b, ';')
		b = append(b, t.Name...)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(t.SRAM), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(t.TCAM), 10)
		for _, d := range t.Deps {
			b = append(b, '<')
			b = strconv.AppendInt(b, int64(d), 10)
		}
	}
	return b
}

// sharedCache memoizes compile verdicts process-wide — the Placer's stage
// checks all route through it.
var sharedCache = NewCompileCache(DefaultCacheEntries)

// SharedCache returns the process-wide compile cache.
func SharedCache() *CompileCache { return sharedCache }
