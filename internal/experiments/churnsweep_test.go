package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/placer"
)

// TestChurnSweepParallelIdentical: the admission-capacity sweep must be
// byte-identical at any worker count — each cell places its own base
// system, so cells are independent and order of completion must not leak
// into the output.
func TestChurnSweepParallelIdentical(t *testing.T) {
	admits := DefaultChurnAdmits(6)

	run := func(workers int) []byte {
		r := NewRunner(hw.NewPaperTestbed(hw.WithServers(2)))
		r.Parallel = workers
		steps, err := r.ChurnSweep([]int{1, 4}, admits, 0.5, placer.SchemeLemur)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(steps)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	serial := run(1)
	parallel := run(4)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("churn sweep differs across worker counts:\n serial:   %s\n parallel: %s", serial, parallel)
	}
}

// TestChurnSweepCapacityArc checks the shape of the admission-capacity
// table on the paper testbed with a 4-core reserve: some leading prefix of
// steps admits incrementally (the reserve working as intended), every step
// carries a verdict, and AdmittedCapacity counts exactly that prefix.
func TestChurnSweepCapacityArc(t *testing.T) {
	r := NewRunner(hw.NewPaperTestbed())
	steps, err := r.ChurnSweep([]int{1, 4}, DefaultChurnAdmits(8), 0.5, placer.SchemeLemur)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 8 {
		t.Fatalf("want 8 steps, got %d", len(steps))
	}
	cap := AdmittedCapacity(steps)
	if cap == 0 {
		t.Fatalf("no incremental admissions with a 4-core reserve: %+v", steps[0])
	}
	for i, st := range steps {
		if st.Step != i {
			t.Errorf("step %d numbered %d", i, st.Step)
		}
		if st.BaseChains != 2+i {
			t.Errorf("step %d base chains = %d, want %d", i, st.BaseChains, 2+i)
		}
		switch st.Outcome {
		case placer.AdmitIncremental:
			if st.Pinned == 0 {
				t.Errorf("step %d incremental but pinned no subgroups", i)
			}
			if st.Reason != "" {
				t.Errorf("step %d incremental with reason %q", i, st.Reason)
			}
		case placer.AdmitRepack, placer.AdmitInfeasible:
			if st.Reason == "" {
				t.Errorf("step %d %s without a reason", i, st.Outcome)
			}
		default:
			t.Errorf("step %d unknown outcome %q", i, st.Outcome)
		}
		if i < cap && st.Outcome != placer.AdmitIncremental {
			t.Errorf("AdmittedCapacity=%d but step %d is %s", cap, i, st.Outcome)
		}
	}
	if cap < len(steps) && steps[cap].Outcome == placer.AdmitIncremental {
		t.Errorf("AdmittedCapacity=%d undercounts the incremental prefix", cap)
	}
}

// TestDefaultChurnAdmits: the default sequence cycles light-to-medium
// chains so capacity drains gradually.
func TestDefaultChurnAdmits(t *testing.T) {
	got := DefaultChurnAdmits(7)
	want := []int{3, 5, 2, 3, 5, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DefaultChurnAdmits(7) = %v, want %v", got, want)
		}
	}
	if DefaultChurnAdmits(0) != nil && len(DefaultChurnAdmits(0)) != 0 {
		t.Fatal("DefaultChurnAdmits(0) must be empty")
	}
}

// TestChurnSweepValidation: an empty admit list is a configuration error.
func TestChurnSweepValidation(t *testing.T) {
	r := NewRunner(hw.NewPaperTestbed())
	if _, err := r.ChurnSweep([]int{1}, nil, 0.5, placer.SchemeLemur); err == nil {
		t.Fatal("empty admit list must fail")
	}
}
