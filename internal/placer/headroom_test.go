package placer_test

import (
	"strings"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/placer"
)

// TestNegativeHeadroomRefused: a negative HeadroomCores is API misuse. Taken
// as a reserve it would let the spare-core pour hand out cores past a
// server's budget (19 on the paper rack's 15-core server for chains 1-4 at
// δ 0.5 and -4, reported feasible), so Place under every scheme and
// Reconfigure under every delta kind return an error instead.
func TestNegativeHeadroomRefused(t *testing.T) {
	wantErr := func(t *testing.T, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "HeadroomCores") {
			t.Fatalf("err %v, want a HeadroomCores error", err)
		}
	}
	in := paperInput(t, hw.NewPaperTestbed(), []int{1, 2, 3, 4}, 0.5)
	in.HeadroomCores = -4
	in.BruteForceBudget = 2000 // the figures' budget: a regression fails fast
	for _, s := range append(placer.Schemes(), placer.SchemeNoProfiling, placer.SchemeNoCoreAlloc, placer.SchemeNoCoalesce) {
		t.Run("Place/"+string(s), func(t *testing.T) {
			_, err := placer.Place(s, in)
			wantErr(t, err)
		})
	}

	base := paperInput(t, hw.NewPaperTestbed(), []int{1, 2, 3}, 0.5)
	prev, err := placer.Place(placer.SchemeLemur, base)
	if err != nil || !prev.Feasible {
		t.Fatalf("fixture: %v %+v", err, prev)
	}
	grown := paperInput(t, hw.NewPaperTestbed(), []int{1, 2, 3, 4}, 0.5)
	grown.Chains = append(base.Chains[:3:3], grown.Chains[3])
	rows := []struct {
		name string
		in   *placer.Input
		d    placer.Delta
	}{
		{"Reconfigure/revalidate", base, placer.Delta{}},
		{"Reconfigure/retire", base, placer.Delta{Retire: []int{0}}},
		{"Reconfigure/admit", grown, placer.Delta{Admit: []int{3}}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			neg := *r.in
			neg.HeadroomCores = -4
			_, err := placer.Reconfigure(prev, &neg, r.d)
			wantErr(t, err)
		})
	}
}
