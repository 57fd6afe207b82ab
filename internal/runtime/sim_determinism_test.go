package runtime

import (
	"bytes"
	"encoding/json"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/obs"
	"lemur/internal/placer"
)

// multiSpec places two chains so the simulation runs with several primary
// subgroups — the regime where per-subgroup map iteration order could leak
// into rng draw order if Simulate were not careful to sort first.
const multiSpec = simpleSpec + `
chain other {
  slo { tmin = 1Gbps  tmax = 100Gbps }
  aggregate { src = 11.77.0.0/16 }
  mon0 = Monitor()
  fwd1 = IPv4Fwd()
  mon0 -> fwd1
}`

// TestSimulateDeterministicRegression: two Simulate runs with the same
// SimConfig.Seed must produce byte-identical stats AND byte-identical
// metrics snapshots. This is stricter than TestSimulateDeterministic (which
// compares two scalar fields on a single-subgroup deployment): it covers
// multiple chains/subgroups and every exported field, so any nondeterminism
// — map-ordered rng draws, unsorted metric labels, float accumulation order
// — fails loudly here.
func TestSimulateDeterministicRegression(t *testing.T) {
	_, res, tb := deploy(t, hw.NewPaperTestbed(), multiSpec, placer.SchemeLemur)
	offered := []float64{res.ChainRates[0] * 1.5, res.ChainRates[1] * 0.8}
	cfg := SimConfig{Seed: 77, DurationSec: 0.25}

	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})

	run := func() (*SimResult, []byte) {
		obs.Reset()
		sim, err := tb.Simulate(offered, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sim, metricsJSON(t)
	}

	simA, metricsA := run()
	simB, metricsB := run()

	statsA, err := json.Marshal(simA)
	if err != nil {
		t.Fatal(err)
	}
	statsB, err := json.Marshal(simB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(statsA, statsB) {
		t.Errorf("same-seed SimResults differ:\n run A: %s\n run B: %s", statsA, statsB)
	}
	if !bytes.Equal(metricsA, metricsB) {
		t.Errorf("same-seed metrics snapshots differ:\n run A: %s\n run B: %s", metricsA, metricsB)
	}
	if len(metricsA) == 0 {
		t.Fatal("empty metrics snapshot")
	}

	// The snapshot must actually contain the simulation series — an empty
	// registry would pass the byte-equality check vacuously.
	for _, name := range []string{
		"lemur_sim_injected_total", "lemur_sim_egressed_total",
		"lemur_sim_queue_depth", "lemur_sim_queue_delay_seconds",
		"lemur_bess_core_utilization",
	} {
		if !bytes.Contains(metricsA, []byte(name)) {
			t.Errorf("metrics snapshot missing %s", name)
		}
	}
}
