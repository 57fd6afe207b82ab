package pisa

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/obs"
)

// randomTables draws a random dependency-ordered logical table list, sized so
// the mix covers clean fits, stage overflows, and per-stage budget failures
// against randomSpec.
func randomTables(rng *rand.Rand) []LogicalTable {
	n := 1 + rng.Intn(40)
	tables := make([]LogicalTable, n)
	for i := range tables {
		t := LogicalTable{
			Name: fmt.Sprintf("t%d", i),
			SRAM: rng.Intn(5),
			TCAM: rng.Intn(3),
		}
		if i > 0 {
			for d := 0; d < 3 && rng.Intn(2) == 0; d++ {
				t.Deps = append(t.Deps, rng.Intn(i))
			}
		}
		tables[i] = t
	}
	return tables
}

func randomSpec(rng *rand.Rand) *hw.PISASpec {
	if rng.Intn(3) == 0 {
		// Tiny pipeline: provokes overflow and budget errors.
		return &hw.PISASpec{Stages: 1 + rng.Intn(3), SRAMPerStage: 2 + rng.Intn(3),
			TCAMPerStage: 1 + rng.Intn(2), TablesPerStage: 1 + rng.Intn(3)}
	}
	return hw.NewPaperTestbed().Switch
}

// TestCacheEviction: a tiny cap flushes the generation but stays correct.
func TestCacheEviction(t *testing.T) {
	cache := newCompileCache(4)
	spec := hw.NewPaperTestbed().Switch
	var key []byte
	for i := 0; i < 20; i++ {
		tables := []LogicalTable{{Name: fmt.Sprintf("u%d", i), SRAM: 1}}
		if _, err := cache.Stages(spec, tables, &key); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	if st.Evictions == 0 {
		t.Errorf("no evictions after 20 distinct inserts into a 4-entry cache: %+v", st)
	}
	if st.Entries > 4 {
		t.Errorf("cache holds %d entries, cap is 4", st.Entries)
	}
	// Entries survive until flushed; re-inserting a resident key must hit.
	tables := []LogicalTable{{Name: "u19", SRAM: 1}}
	if _, err := cache.Stages(spec, tables, &key); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats(); got.Hits != st.Hits+1 {
		t.Errorf("resident key did not hit: %+v -> %+v", st, got)
	}
}

// TestCacheConcurrent hammers one cache from many goroutines over a small key
// space; the race detector validates the locking and every result must match
// the cold compile.
func TestCacheConcurrent(t *testing.T) {
	cache := newCompileCache(0)
	rng := rand.New(rand.NewSource(5))
	spec := hw.NewPaperTestbed().Switch
	inputs := make([][]LogicalTable, 8)
	want := make([]int, 8)
	for i := range inputs {
		inputs[i] = randomTables(rng)
		if bin, _ := Compile(spec, inputs[i]); bin != nil {
			want[i] = bin.Stages
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			var key []byte
			for k := 0; k < 200; k++ {
				i := r.Intn(len(inputs))
				if got, _ := cache.Stages(spec, inputs[i], &key); got != want[i] {
					t.Errorf("concurrent verdict diverged for input %d", i)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestCacheSyncObs: SyncObs must publish the cache's live Stats — including
// the derived hit rate — to the registry gauges a -metrics-out snapshot
// exports.
func TestCacheSyncObs(t *testing.T) {
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})
	cache := newCompileCache(0)
	spec := hw.NewPaperTestbed().Switch
	tables := randomTables(rand.New(rand.NewSource(77)))
	var key []byte
	if _, err := cache.Stages(spec, tables, &key); err != nil { // miss
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // hits
		if _, err := cache.Stages(spec, tables, &key); err != nil {
			t.Fatal(err)
		}
	}
	cache.SyncObs()

	st := cache.Stats()
	if st.Hits != 3 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("unexpected stats %+v", st)
	}
	checks := []struct {
		name string
		want float64
	}{
		{"lemur_pisa_compile_cache_hits", 3},
		{"lemur_pisa_compile_cache_misses", 1},
		{"lemur_pisa_compile_cache_evictions", 0},
		{"lemur_pisa_compile_cache_entries", 1},
		{"lemur_pisa_compile_cache_hit_rate", 0.75},
	}
	for _, c := range checks {
		if got := obs.G(c.name).Value(); got != c.want {
			t.Errorf("gauge %s = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestCompileCachedMatchesCold: over 150 randomized (spec, tables) inputs,
// the cache's Stages gives the uncached Compile's stage count and error —
// fit, stage overflow and per-stage budget failure alike, same text and same
// errors.Is(ErrStageOverflow) classification — on first sight (miss) and on
// repeat (hit).
func TestCompileCachedMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	cache := newCompileCache(0)
	var key []byte
	fits, overflows, others := 0, 0, 0
	for trial := 0; trial < 150; trial++ {
		spec := randomSpec(rng)
		tables := randomTables(rng)
		cold, coldErr := Compile(spec, tables)
		wantStages := 0
		if cold != nil {
			wantStages = cold.Stages
		}
		switch {
		case coldErr == nil:
			fits++
		case errors.Is(coldErr, ErrStageOverflow):
			overflows++
		default:
			others++
		}
		for _, pass := range []string{"miss", "hit"} {
			stages, err := cache.Stages(spec, tables, &key)
			label := fmt.Sprintf("trial %d %s", trial, pass)
			if stages != wantStages {
				t.Errorf("%s: stages = %d, Compile says %d", label, stages, wantStages)
			}
			if (err == nil) != (coldErr == nil) ||
				(err != nil && (err.Error() != coldErr.Error() ||
					errors.Is(err, ErrStageOverflow) != errors.Is(coldErr, ErrStageOverflow))) {
				t.Errorf("%s: error %v, Compile says %v", label, err, coldErr)
			}
		}
	}
	if fits == 0 || overflows == 0 || others == 0 {
		t.Fatalf("fixture must cover every verdict: %d fits, %d overflows, %d other errors", fits, overflows, others)
	}
	if st := cache.Stats(); st.Misses != 150 || st.Hits != 150 {
		t.Errorf("stats = %+v, want 150 misses and 150 hits", st)
	}
}

// TestCompileCacheProbeMatchesCompile: on 20 randomized inputs a probe hit
// gives Compile's stage count and error, reuses the caller's key buffer, and
// allocates nothing.
func TestCompileCacheProbeMatchesCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cache := newCompileCache(0)
	var key []byte
	for trial := 0; trial < 20; trial++ {
		spec, tables := randomSpec(rng), randomTables(rng)
		cold, coldErr := Compile(spec, tables)
		want := 0
		if cold != nil {
			want = cold.Stages
		}
		cache.Stages(spec, tables, &key)
		at := &key[0]
		if stages, err := cache.Stages(spec, tables, &key); stages != want ||
			(err == nil) != (coldErr == nil) || (err != nil && err.Error() != coldErr.Error()) {
			t.Errorf("trial %d: probe hit = (%d, %v), Compile says (%d, %v)", trial, stages, err, want, coldErr)
		}
		if a := testing.AllocsPerRun(10, func() { cache.Stages(spec, tables, &key) }); a != 0 {
			t.Errorf("trial %d: a probe hit allocates %.0f objects, want 0", trial, a)
		}
		if &key[0] != at {
			t.Errorf("trial %d: the probe did not reuse the caller's key buffer", trial)
		}
	}
}
