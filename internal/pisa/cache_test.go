package pisa

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
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

// TestCompileCachedMatchesCold: over ≥100 randomized (spec, tables) inputs,
// the cached path must return the exact verdict of a cold Compile — on first
// sight (miss) and on repeat (hit): same layout, same error text, and the
// same errors.Is(ErrStageOverflow) classification.
func TestCompileCachedMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(991))
	cache := NewCompileCache(0)
	for trial := 0; trial < 150; trial++ {
		spec := randomSpec(rng)
		tables := randomTables(rng)
		cold, coldErr := Compile(spec, tables)

		for pass, want := range []string{"miss", "hit"} {
			got, gotErr := cache.Compile(spec, tables)
			label := fmt.Sprintf("trial %d %s", trial, want)
			if (cold == nil) != (got == nil) {
				t.Fatalf("%s: binary presence differs: cold=%v cached=%v", label, cold, got)
			}
			if cold != nil {
				if !reflect.DeepEqual(cold.StageOf, got.StageOf) || cold.Stages != got.Stages {
					t.Errorf("%s: layout differs: cold=%+v cached=%+v", label, cold, got)
				}
			}
			if (coldErr == nil) != (gotErr == nil) {
				t.Fatalf("%s: error presence differs: cold=%v cached=%v", label, coldErr, gotErr)
			}
			if coldErr != nil {
				if coldErr.Error() != gotErr.Error() {
					t.Errorf("%s: error text differs:\n cold:   %v\n cached: %v", label, coldErr, gotErr)
				}
				if errors.Is(coldErr, ErrStageOverflow) != errors.Is(gotErr, ErrStageOverflow) {
					t.Errorf("%s: overflow classification differs", label)
				}
			}
			_ = pass
		}
	}
	st := cache.Stats()
	if st.Misses != 150 || st.Hits != 150 {
		t.Errorf("stats = %+v, want 150 misses and 150 hits", st)
	}
}

// TestCacheHitReturnsFreshBinary: mutating a returned layout must not poison
// later hits.
func TestCacheHitReturnsFreshBinary(t *testing.T) {
	cache := NewCompileCache(0)
	spec := hw.NewPaperTestbed().Switch
	tables := []LogicalTable{{Name: "a", SRAM: 1}, {Name: "b", SRAM: 1, Deps: []int{0}}}
	first, err := cache.Compile(spec, tables)
	if err != nil {
		t.Fatal(err)
	}
	first.StageOf[0] = 99
	first.Stages = -1
	second, err := cache.Compile(spec, tables)
	if err != nil {
		t.Fatal(err)
	}
	if second.StageOf[0] == 99 || second.Stages == -1 {
		t.Errorf("cached binary was aliased to the caller's copy: %+v", second)
	}
}

// TestCacheEviction: a tiny cap flushes the generation but stays correct.
func TestCacheEviction(t *testing.T) {
	cache := NewCompileCache(4)
	spec := hw.NewPaperTestbed().Switch
	for i := 0; i < 20; i++ {
		tables := []LogicalTable{{Name: fmt.Sprintf("u%d", i), SRAM: 1}}
		if _, err := cache.Compile(spec, tables); err != nil {
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
	if _, err := cache.Compile(spec, tables); err != nil {
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
	cache := NewCompileCache(0)
	rng := rand.New(rand.NewSource(5))
	spec := hw.NewPaperTestbed().Switch
	inputs := make([][]LogicalTable, 8)
	want := make([]*Binary, 8)
	for i := range inputs {
		inputs[i] = randomTables(rng)
		want[i], _ = Compile(spec, inputs[i])
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for k := 0; k < 200; k++ {
				i := r.Intn(len(inputs))
				got, _ := cache.Compile(spec, inputs[i])
				if (got == nil) != (want[i] == nil) ||
					(got != nil && !reflect.DeepEqual(got.StageOf, want[i].StageOf)) {
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
	cache := NewCompileCache(0)
	spec := hw.NewPaperTestbed().Switch
	tables := randomTables(rand.New(rand.NewSource(77)))
	if _, err := cache.Compile(spec, tables); err != nil { // miss
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // hits
		if _, err := cache.Compile(spec, tables); err != nil {
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

// TestCompileCacheProbeMatchesCompile: Stages, the verdict-only probe, gives
// Compile's stage count and Compile's error — fit, stage overflow and
// per-stage budget failure alike — on first sight (miss) and on repeat (hit),
// counts hits and misses as Compile does, shares entries with it, reuses the
// caller's key buffer, and a hit allocates nothing.
func TestCompileCacheProbeMatchesCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	cache := NewCompileCache(0)
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
		// The probe's entry serves Compile, under the same key.
		bin, err := cache.Compile(spec, tables)
		if (bin == nil) != (cold == nil) || (bin != nil && !reflect.DeepEqual(bin.StageOf, cold.StageOf)) ||
			(err == nil) != (coldErr == nil) {
			t.Errorf("trial %d: Compile after Stages = (%+v, %v), cold = (%+v, %v)", trial, bin, err, cold, coldErr)
		}
	}
	if fits == 0 || overflows == 0 || others == 0 {
		t.Fatalf("fixture must cover every verdict: %d fits, %d overflows, %d other errors", fits, overflows, others)
	}
	if st := cache.Stats(); st.Misses != 150 || st.Hits != 300 {
		t.Errorf("stats = %+v, want 150 misses and 300 hits", st)
	}

	spec, tables := randomSpec(rng), randomTables(rng)
	cache.Stages(spec, tables, &key)
	at := &key[0]
	if a := testing.AllocsPerRun(100, func() { cache.Stages(spec, tables, &key) }); a != 0 {
		t.Errorf("a probe hit allocates %.0f objects, want 0", a)
	}
	if &key[0] != at {
		t.Error("the probe did not reuse the caller's key buffer")
	}
}
