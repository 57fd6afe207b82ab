package profile

import (
	"math"
	"testing"

	"lemur/internal/nf"
)

// fastProfiler keeps tests quick; the paper's 500-run setting is what
// cmd/lemur-profile runs by default.
func fastProfiler() *Profiler {
	return &Profiler{Runs: 60, PacketsPerRun: 16, Seed: 42}
}

func TestProfileEncryptMatchesTable4Shape(t *testing.T) {
	pr := fastProfiler()
	same, err := pr.Profile("Encrypt", nil, SameNUMA)
	if err != nil {
		t.Fatal(err)
	}
	// Worst case anchored at the registry cost.
	if same.Max > 8777.01 || same.Max < 8777*0.97 {
		t.Errorf("same-NUMA max = %v, want near 8777", same.Max)
	}
	if same.Min >= same.Mean || same.Mean >= same.Max {
		t.Errorf("ordering violated: %v <= %v <= %v", same.Min, same.Mean, same.Max)
	}
	// Table 4: worst within 6.5% of mean.
	if same.Max/same.Mean > 1.065 {
		t.Errorf("max/mean = %v, want <= 1.065", same.Max/same.Mean)
	}
	diff, err := pr.Profile("Encrypt", nil, DiffNUMA)
	if err != nil {
		t.Fatal(err)
	}
	if diff.Mean <= same.Mean {
		t.Errorf("diff-NUMA mean %v not dearer than same-NUMA %v", diff.Mean, same.Mean)
	}
	if r := diff.Mean / same.Mean; r < 1.01 || r > 1.10 {
		t.Errorf("NUMA ratio = %v, want ~1.02-1.08", r)
	}
}

func TestProfileAllClasses(t *testing.T) {
	pr := &Profiler{Runs: 5, PacketsPerRun: 8, Seed: 7}
	for _, class := range nf.Classes() {
		st, err := pr.Profile(class, nil, SameNUMA)
		if err != nil {
			t.Errorf("%s: %v", class, err)
			continue
		}
		if st.Max <= 0 || st.Min <= 0 || st.Runs != 5 {
			t.Errorf("%s: degenerate stats %+v", class, st)
		}
	}
}

func TestProfileUnknownClass(t *testing.T) {
	if _, err := fastProfiler().Profile("Bogus", nil, SameNUMA); err == nil {
		t.Error("want error")
	}
}

// TestProfileRejectsNonPositiveRuns: statistics over no runs are undefined,
// so Profile — and FitLinear through it — refuses them instead of reporting
// a NaN mean and an inverted min/max.
func TestProfileRejectsNonPositiveRuns(t *testing.T) {
	for _, runs := range []int{0, -3} {
		pr := &Profiler{Runs: runs, PacketsPerRun: 8, Seed: 1}
		if st, err := pr.Profile("ACL", nil, SameNUMA); err == nil {
			t.Errorf("runs=%d: Profile returned %+v, want an error", runs, st)
		}
		if m, err := pr.FitLinear("ACL", "rules", []int{128, 512}, SameNUMA); err == nil {
			t.Errorf("runs=%d: FitLinear returned %+v, want an error", runs, m)
		}
	}
}

func TestFitLinearACL(t *testing.T) {
	pr := &Profiler{Runs: 10, PacketsPerRun: 8, Seed: 3}
	m, err := pr.FitLinear("ACL", "rules", []int{128, 512, 1024, 2048}, SameNUMA)
	if err != nil {
		t.Fatal(err)
	}
	// The registry model is 700 + 3.2305*rules; the fit must recover the
	// slope within noise.
	if m.Slope < 2.8 || m.Slope > 3.6 {
		t.Errorf("slope = %v, want ~3.23", m.Slope)
	}
	pred := m.Predict(1024)
	if math.Abs(pred-4008) > 300 {
		t.Errorf("Predict(1024) = %v, want ~4008", pred)
	}
	if _, err := pr.FitLinear("ACL", "rules", []int{128}, SameNUMA); err == nil {
		t.Error("want error for single size")
	}
	if _, err := pr.FitLinear("ACL", "rules", []int{128, 128}, SameNUMA); err == nil {
		t.Error("want error for degenerate sizes")
	}
}

func TestDefaultDB(t *testing.T) {
	db := DefaultDB()
	if c := db.WorstCycles("Encrypt", nil); c != 8777 {
		t.Errorf("Encrypt = %v", c)
	}
	if c := db.WorstCycles("ACL", nf.Params{"rules": 2048}); c < 7000 || c > 7400 {
		t.Errorf("ACL(2048) = %v, want ~7315", c)
	}
	if c := db.WorstCycles("NoSuchNF", nil); c < 1e299 {
		t.Errorf("unknown class = %v, want +huge", c)
	}
}

func TestScaledDB(t *testing.T) {
	db := DefaultDB().Scaled(0.95)
	if c := db.WorstCycles("Encrypt", nil); math.Abs(c-8777*0.95) > 0.01 {
		t.Errorf("scaled Encrypt = %v", c)
	}
	db2 := db.Scaled(0.5)
	if c := db2.WorstCycles("Encrypt", nil); math.Abs(c-8777*0.475) > 0.01 {
		t.Errorf("double-scaled Encrypt = %v", c)
	}
	// Original unchanged.
	if c := DefaultDB().WorstCycles("Encrypt", nil); c != 8777 {
		t.Errorf("base DB mutated: %v", c)
	}
}

func TestUniformDB(t *testing.T) {
	db := Uniform(1000)
	if c := db.WorstCycles("Encrypt", nil); c != 1000 {
		t.Errorf("Encrypt = %v", c)
	}
	if c := db.WorstCycles("Dedup", nil); c != 1000 {
		t.Errorf("Dedup = %v", c)
	}
	if c := db.WorstCycles("ACL", nf.Params{"rules": 4096}); c != 1000 {
		t.Errorf("uniform must ignore params: %v", c)
	}
	if c := db.WorstCycles("NoSuchNF", nil); c < 1e299 {
		t.Errorf("unknown class must stay infeasible: %v", c)
	}
}

func TestMeasureDB(t *testing.T) {
	db, err := Measure(&Profiler{Runs: 3, PacketsPerRun: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range nf.Classes() {
		c := db.WorstCycles(class, nil)
		model := nf.Registry[class].Cycles(nil)
		if c <= 0 || c > model*1.001 {
			t.Errorf("%s: measured %v vs model %v", class, c, model)
		}
	}
}

func TestProfileDeterminism(t *testing.T) {
	a, _ := fastProfiler().Profile("NAT", nil, SameNUMA)
	b, _ := fastProfiler().Profile("NAT", nil, SameNUMA)
	if a != b {
		t.Errorf("same seed, different stats: %+v vs %+v", a, b)
	}
}
