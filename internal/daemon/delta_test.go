package daemon

import (
	"testing"

	"lemur/internal/obs"
)

// reconfigCounters are the per-kind call counters of the incremental door
// and its deployment half, in a fixed order.
var reconfigCounters = []string{
	"lemur_placer_replace_total", "lemur_placer_admit_total", "lemur_placer_retire_total",
	"lemur_rewires_total", "lemur_admit_chains_total", "lemur_retire_chains_total",
	"lemur_rewire_rules_removed_total",
}

func readCounters() map[string]uint64 {
	out := map[string]uint64{}
	for _, name := range reconfigCounters {
		out[name] = obs.C(name).Value()
	}
	return out
}

// TestOneDeltaPerTick: a tick that sees two retirements, two admissions and
// an injected failure at once makes exactly one solver call and one Apply —
// every per-kind counter moves by one, the rewire counter by one.
func TestOneDeltaPerTick(t *testing.T) {
	obs.Enable()
	d, _ := newTestDaemon(t, nil)
	if _, err := d.SetSpec(specDoc(t, []string{"alpha", "beta", "gamma"}), "test"); err != nil {
		t.Fatal(err)
	}
	if rr := d.Tick(); !rr.Converged {
		t.Fatalf("initial apply failed: %+v", rr)
	}

	if _, err := d.SetSpec(specDoc(t, []string{"gamma", "delta", "epsilon"}), "test"); err != nil {
		t.Fatal(err)
	}
	if err := d.InjectFailures([]string{"nf-server-1"}); err != nil {
		t.Fatal(err)
	}
	before := readCounters()
	rr := d.Tick()
	if !rr.Converged || len(rr.Retired) != 2 || len(rr.Admitted) != 2 || len(rr.Replaced) != 1 {
		t.Fatalf("want 2 retired, 2 admitted, 1 replaced in one pass, got %+v", rr)
	}
	after := readCounters()
	for _, name := range reconfigCounters[:6] {
		if got := after[name] - before[name]; got != 1 {
			t.Errorf("%s moved by %d in one tick, want 1", name, got)
		}
	}
	if got := activeNames(d); len(got) != 3 {
		t.Fatalf("active chains = %v, want gamma, delta, epsilon", got)
	}
	for _, c := range d.StatusSnapshot().Chains {
		for _, srv := range c.Servers {
			if srv == "nf-server-1" {
				t.Errorf("chain %s placed on the dead server", c.Name)
			}
		}
		if !c.SLOMet {
			t.Errorf("chain %s SLO not met: %+v", c.Name, c)
		}
	}
	if rr2 := d.Tick(); !rr2.Converged || len(rr2.Retired)+len(rr2.Admitted)+len(rr2.Replaced) != 0 {
		t.Fatalf("second tick not a no-op: %+v", rr2)
	}
}

// TestAdmissionAfterFailureLandsOnce: an admission arriving after a handled
// failure is solved on the surviving hardware directly — installed by one
// Apply that retracts nothing — instead of being placed on the full
// topology and moved off the dead server by a second rewire in the same
// pass.
func TestAdmissionAfterFailureLandsOnce(t *testing.T) {
	obs.Enable()
	d, _ := newTestDaemon(t, nil)
	if _, err := d.SetSpec(specDoc(t, []string{"alpha", "beta"}), "test"); err != nil {
		t.Fatal(err)
	}
	if rr := d.Tick(); !rr.Converged {
		t.Fatalf("initial apply failed: %+v", rr)
	}
	if err := d.InjectFailures([]string{"nf-server-1"}); err != nil {
		t.Fatal(err)
	}
	if rr := d.Tick(); !rr.Converged || len(rr.Replaced) != 1 {
		t.Fatalf("failure not handled: %+v", rr)
	}

	if _, err := d.SetSpec(specDoc(t, []string{"alpha", "beta", "gamma"}), "test"); err != nil {
		t.Fatal(err)
	}
	before := readCounters()
	rr := d.Tick()
	if !rr.Converged || len(rr.Admitted) != 1 || len(rr.Replaced) != 0 {
		t.Fatalf("want gamma admitted and nothing replaced, got %+v", rr)
	}
	after := readCounters()
	if got := after["lemur_rewires_total"] - before["lemur_rewires_total"]; got != 1 {
		t.Errorf("admission after a handled failure took %d rewires, want 1", got)
	}
	if got := after["lemur_rewire_rules_removed_total"] - before["lemur_rewire_rules_removed_total"]; got != 0 {
		t.Errorf("admission after a handled failure removed %d rules, want 0", got)
	}
	for _, c := range d.StatusSnapshot().Chains {
		for _, srv := range c.Servers {
			if srv == "nf-server-1" {
				t.Errorf("chain %s placed on the dead server", c.Name)
			}
		}
	}
}
