package profile

import (
	"fmt"
	"sort"
	"strings"

	"lemur/internal/nf"
)

// DB is the cost database the Placer consults: worst-case per-packet cycle
// costs per (NF class, parameter signature). A DB may come straight from the
// registry models (DefaultDB) or from profiling runs (Measure), and supports
// the uniform error scaling used by the §5.2 sensitivity experiment.
type DB struct {
	worst   map[string]float64
	scale   float64
	uniform float64 // nonzero: every NF costs this much (No-Profiling ablation)
}

// DefaultDB builds a DB from the registry's worst-case cost models — the
// fast path used by the experiments (equivalent to loading saved profiles).
func DefaultDB() *DB {
	return &DB{worst: make(map[string]float64), scale: 1}
}

func key(class string, params nf.Params) string {
	if len(params) == 0 {
		return class
	}
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(class)
	for _, k := range keys {
		fmt.Fprintf(&b, "|%s=%v", k, params[k])
	}
	return b.String()
}

// WorstCycles returns the worst-case cycles/packet for the NF, preferring a
// measured value and falling back to the registry model. Unknown classes
// cost +Inf, which makes any placement using them rate-infeasible rather
// than silently free.
func (db *DB) WorstCycles(class string, params nf.Params) float64 {
	if _, known := nf.Registry[class]; !known {
		return inf
	}
	if db.uniform != 0 {
		return db.uniform * db.scale
	}
	if v, ok := db.worst[key(class, params)]; ok {
		return v * db.scale
	}
	return nf.Registry[class].Cycles(params) * db.scale
}

// Scaled returns a copy whose costs are multiplied by factor — the §5.2
// profiling-error sensitivity knob (factor 0.92 = "8% under-estimate").
func (db *DB) Scaled(factor float64) *DB {
	return &DB{worst: db.worst, scale: db.scale * factor, uniform: db.uniform}
}

// Uniform returns a DB in which every NF costs the same fixed cycle count —
// the "No Profiling" ablation of Figure 2f.
func Uniform(cycles float64) *DB {
	db := DefaultDB()
	db.uniform = cycles
	return db
}

const inf = 1e300
