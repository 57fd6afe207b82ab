package runtime

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"lemur/internal/chaos"
	"lemur/internal/hw"
	"lemur/internal/metacompiler"
	"lemur/internal/nfgraph"
	"lemur/internal/nfspec"
	"lemur/internal/obs"
	"lemur/internal/pisa"
	"lemur/internal/placer"
	"lemur/internal/profile"
)

// gammaSpec is the chain the churn tests admit mid-run.
const gammaSpec = `
chain gamma {
  slo { tmin = 1Gbps  tmax = 100Gbps }
  aggregate { src = 10.9.0.0/16 }
  mon0 = Monitor()
  fwd0 = IPv4Fwd()
  mon0 -> fwd0
}`

// deployHeadroom mirrors deploy but places with an admission-headroom
// reserve, so mid-run admissions have core budget to land in.
func deployHeadroom(t *testing.T, topo *hw.Topology, src string, headroom int) (*placer.Input, *placer.Result, *Testbed) {
	t.Helper()
	chains, err := nfspec.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	in := &placer.Input{Topo: topo, DB: profile.DefaultDB(), Restrict: evalRestrict, HeadroomCores: headroom}
	for _, c := range chains {
		g, err := nfgraph.Build(c)
		if err != nil {
			t.Fatal(err)
		}
		in.Chains = append(in.Chains, g)
	}
	res, err := placer.Place(placer.SchemeLemur, in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("placement infeasible: %s", res.Reason)
	}
	d, err := metacompiler.Compile(in, res)
	if err != nil {
		t.Fatal(err)
	}
	return in, res, New(d, 42)
}

// graphFor builds the graph of a single-chain spec for a churn catalog.
func graphFor(t *testing.T, src string) *nfgraph.Graph {
	t.Helper()
	chains, err := nfspec.Parse(src)
	if err != nil || len(chains) != 1 {
		t.Fatalf("want one chain, got %d (%v)", len(chains), err)
	}
	g, err := nfgraph.Build(chains[0])
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSimulateChurnAdmitRetire is the end-to-end churn demo: admit a third
// chain mid-run, retire a base chain later, and check the full arc — both
// events land after the detection+reconfig window, the admitted chain
// carries traffic, the retirement reclaims the slot without renumbering,
// uninvolved chains see zero churn drops, and every chain clears its SLO in
// the post-churn window.
func TestSimulateChurnAdmitRetire(t *testing.T) {
	_, _, tb := deployHeadroom(t, hw.NewPaperTestbed(hw.WithServers(2)), failoverSpec, 4)
	plan, err := chaos.Parse("admit:gamma@0.05s;retire:beta@0.15s")
	if err != nil {
		t.Fatal(err)
	}
	catalog := map[string]*nfgraph.Graph{"gamma": graphFor(t, gammaSpec)}

	sim, err := tb.Simulate([]float64{4e9, 4e9}, SimConfig{
		Seed: 7, DurationSec: 0.3, Faults: plan, ChurnCatalog: catalog,
	})
	if err != nil {
		t.Fatal(err)
	}
	co := sim.Churn
	if co == nil {
		t.Fatal("churn run produced no ChurnReport")
	}
	if len(co.Rejected) != 0 {
		t.Fatalf("events rejected: %v", co.Rejected)
	}
	if len(co.Events) != 2 {
		t.Fatalf("want 2 fired events, got %v", co.Events)
	}
	if len(co.RewireSummaries) != 2 {
		t.Fatalf("want 2 rewires, got %v", co.RewireSummaries)
	}
	for _, rw := range co.RewireSummaries {
		if !strings.Contains(rw, "rewire:") {
			t.Errorf("malformed rewire summary %q", rw)
		}
	}

	// The admitted chain occupies the appended tail slot.
	if len(sim.AchievedBps) != 3 || len(sim.Injected) != 3 || len(co.ChurnDrops) != 3 {
		t.Fatalf("per-chain slices not grown to 3: %d achieved", len(sim.AchievedBps))
	}
	window := co.DetectionDelaySec + co.ReconfigDelaySec
	if window <= 0 {
		t.Fatalf("default delays expected, got %g+%g", co.DetectionDelaySec, co.ReconfigDelaySec)
	}
	if got, want := co.AdmittedAtSec[2], 0.05+window; math.Abs(got-want) > 1e-9 {
		t.Errorf("admission landed at %g, want request+delays = %g", got, want)
	}
	if co.AdmittedAtSec[0] >= 0 || co.AdmittedAtSec[1] >= 0 {
		t.Errorf("base chains marked admitted: %v", co.AdmittedAtSec)
	}
	// Admission latency: request -> first egressed packet, so at least the
	// control-plane window, and the chain really carried traffic.
	if co.AdmitLatencySec[2] < window {
		t.Errorf("admission latency %g below the %g control-plane window", co.AdmitLatencySec[2], window)
	}
	if sim.Injected[2] == 0 || sim.Egressed[2] == 0 {
		t.Errorf("admitted chain carried no traffic: injected %d, egressed %d", sim.Injected[2], sim.Egressed[2])
	}

	// The retirement reclaimed slot 1 without renumbering.
	if got, want := co.RetiredAtSec[1], 0.15+window; math.Abs(got-want) > 1e-9 {
		t.Errorf("retirement landed at %g, want request+delays = %g", got, want)
	}
	if !tb.D.Result.IsRetired(1) {
		t.Error("deployment placement does not mark slot 1 retired")
	}
	if len(tb.D.Input.Chains) != 3 {
		t.Errorf("deployment input holds %d chains, want 3 (slots are never reused)", len(tb.D.Input.Chains))
	}

	// Chains uninvolved in any rewire lose nothing to churn.
	if co.ChurnDrops[0] != 0 {
		t.Errorf("uninvolved chain 0 lost %d packets to churn", co.ChurnDrops[0])
	}
	if sim.DropRate[0] != 0 {
		t.Errorf("uninvolved chain 0 dropped %.2f%% of its traffic", sim.DropRate[0]*100)
	}

	// Post-churn window: opens at the last landing, everyone compliant
	// (retired chains trivially — they demand nothing).
	if want := 0.3 - (0.15 + window); math.Abs(co.PostWindowSec-want) > 1e-9 {
		t.Errorf("post window %g, want %g", co.PostWindowSec, want)
	}
	for ci, ok := range co.PostSLOCompliant {
		if !ok {
			t.Errorf("chain %d post-churn rate %g bps violates its SLO", ci, co.PostAchievedBps[ci])
		}
	}
}

// TestCompileRetiredSlot: a placement with a retired slot compiles like any
// other. The retired chain keeps its service paths (its slot fixes them) but
// installs nothing under their SPIs, and the deployment passes the verify
// walk, which sends the retired slot no frames.
func TestCompileRetiredSlot(t *testing.T) {
	in, res, _ := deploy(t, hw.NewPaperTestbed(), failoverSpec, placer.SchemeLemur)
	rep, err := placer.Reconfigure(res, in, placer.Delta{Retire: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	d, err := metacompiler.Compile(in, rep.Result)
	if err != nil {
		t.Fatalf("Compile of a result with a retired slot: %v", err)
	}
	stats, err := New(d, 42).Verify(50)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if got := stats.ByChain[0]; got.Injected != 50 || got.Egressed != 50 {
		t.Errorf("live chain walk = %+v, want 50 injected and egressed", got)
	}
	if got := stats.ByChain[1]; got.Injected != 0 {
		t.Errorf("retired slot got %d frames", got.Injected)
	}
	if len(d.ChainPaths) != 2 || len(d.ChainPaths[1]) == 0 {
		t.Fatalf("retired slot has no service paths: %d slots", len(d.ChainPaths))
	}
	for _, sp := range d.ChainPaths[1] {
		for _, pl := range d.Pipelines {
			if n := len(pl.RemoveSPIRange(sp.SPI, sp.SPI)); n != 0 {
				t.Errorf("retired slot installed %d subgroups under spi %d", n, sp.SPI)
			}
		}
		if e, r := d.Switch.RemoveSPIRange(sp.SPI, sp.SPI); e != 0 || r != 0 {
			t.Errorf("retired slot installed %d switch entries and %d classifier rules under spi %d", e, r, sp.SPI)
		}
	}
}

// TestSimulateChurnFreeByteIdentity is the acceptance property: a churn-free
// run — nil plan or zero-event plan — is byte-identical (SimResult JSON and
// metrics snapshot) to the engine without churn support, and an armed but
// dormant plan (event beyond the run) must not perturb the packet dynamics.
func TestSimulateChurnFreeByteIdentity(t *testing.T) {
	_, res, tb := deploy(t, hw.NewPaperTestbed(), multiSpec, placer.SchemeLemur)
	offered := []float64{res.ChainRates[0] * 1.2, res.ChainRates[1] * 0.8}
	catalog := map[string]*nfgraph.Graph{"gamma": graphFor(t, gammaSpec)}

	reg := obs.Default()
	reg.Enable()
	t.Cleanup(func() {
		reg.Disable()
		reg.Reset()
	})

	run := func(plan *chaos.Plan) (*SimResult, []byte, []byte) {
		reg.Reset()
		sim, err := tb.Simulate(offered, SimConfig{Seed: 99, DurationSec: 0.2, Faults: plan, ChurnCatalog: catalog})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := json.Marshal(sim)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return sim, stats, buf.Bytes()
	}

	_, statsNil, metricsNil := run(nil)
	simEmpty, statsEmpty, metricsEmpty := run(&chaos.Plan{})
	if simEmpty.Churn != nil {
		t.Error("zero-event churn plan must not attach a ChurnReport")
	}
	if !bytes.Equal(statsNil, statsEmpty) {
		t.Errorf("empty churn plan perturbed SimResult:\n nil:   %s\n empty: %s", statsNil, statsEmpty)
	}
	if !bytes.Equal(metricsNil, metricsEmpty) {
		t.Errorf("empty churn plan perturbed metrics:\n nil:   %s\n empty: %s", metricsNil, metricsEmpty)
	}

	dormantPlan, err := chaos.Parse("admit:gamma@10s")
	if err != nil {
		t.Fatal(err)
	}
	dormant, _, _ := run(dormantPlan)
	if dormant.Churn == nil {
		t.Fatal("armed plan must attach a ChurnReport")
	}
	if len(dormant.Churn.Events) != 0 || len(dormant.Churn.Rejected) != 0 {
		t.Fatalf("event at t=10s acted in a 0.2s run: %+v", dormant.Churn)
	}
	stripped := *dormant
	stripped.Churn = nil
	strippedJSON, err := json.Marshal(&stripped)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(statsNil, strippedJSON) {
		t.Errorf("dormant churn plan perturbed packet dynamics:\n nil:     %s\n dormant: %s", statsNil, strippedJSON)
	}
}

// TestSimulateChurnDeterministic: a churn run is byte-identical — SimResult
// JSON and metrics snapshot (modulo span wall-clock durations) — across two
// fresh deployments with the same seed and schedule.
func TestSimulateChurnDeterministic(t *testing.T) {
	reg := obs.Default()
	reg.Enable()
	t.Cleanup(func() {
		reg.Disable()
		reg.Reset()
	})

	run := func() ([]byte, []byte) {
		// The shared compile cache is process-global; reset it so both
		// runs' rewire recompiles see the same hit/miss trajectory (the
		// test is otherwise order-dependent on which suite tests ran
		// before it and fails when run in isolation).
		pisa.SharedCache().Reset()
		_, _, tb := deployHeadroom(t, hw.NewPaperTestbed(hw.WithServers(2)), failoverSpec, 4)
		plan, err := chaos.Parse("admit:gamma@0.05s;retire:beta@0.12s")
		if err != nil {
			t.Fatal(err)
		}
		reg.Reset()
		sim, err := tb.Simulate([]float64{4e9, 4e9}, SimConfig{
			Seed: 13, DurationSec: 0.25, Faults: plan,
			ChurnCatalog: map[string]*nfgraph.Graph{"gamma": graphFor(t, gammaSpec)},
		})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := json.Marshal(sim)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return stats, scrubWallClock(t, buf.Bytes())
	}

	statsA, metricsA := run()
	statsB, metricsB := run()
	if !bytes.Equal(statsA, statsB) {
		t.Errorf("same-seed churn SimResults differ:\n run A: %s\n run B: %s", statsA, statsB)
	}
	if !bytes.Equal(metricsA, metricsB) {
		t.Errorf("same-seed churn metrics snapshots differ:\n run A: %s\n run B: %s", metricsA, metricsB)
	}
	if !bytes.Contains(statsA, []byte("RewireSummaries")) {
		t.Fatalf("churn run did not rewire: %s", statsA)
	}
}

// TestSimulateChurnRejections: events that cannot be applied are recorded as
// rejections with reasons — the run itself keeps going — while malformed
// configurations fail the run up front.
func TestSimulateChurnRejections(t *testing.T) {
	t.Run("retire unknown chain", func(t *testing.T) {
		_, _, tb := deploy(t, hw.NewPaperTestbed(), failoverSpec, placer.SchemeLemur)
		plan, _ := chaos.Parse("retire:nosuch@0.05s")
		sim, err := tb.Simulate([]float64{4e9, 4e9}, SimConfig{Seed: 3, DurationSec: 0.15, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(sim.Churn.Rejected); n != 1 || !strings.Contains(sim.Churn.Rejected[0], "no such running chain") {
			t.Fatalf("want one no-such-chain rejection, got %v", sim.Churn.Rejected)
		}
		if len(sim.AchievedBps) != 2 {
			t.Fatalf("rejected event grew the chain set: %d", len(sim.AchievedBps))
		}
	})

	t.Run("admit already-running chain", func(t *testing.T) {
		in, _, tb := deploy(t, hw.NewPaperTestbed(), failoverSpec, placer.SchemeLemur)
		plan, _ := chaos.Parse("admit:alpha@0.05s")
		sim, err := tb.Simulate([]float64{4e9, 4e9}, SimConfig{
			Seed: 3, DurationSec: 0.15, Faults: plan,
			ChurnCatalog: map[string]*nfgraph.Graph{"alpha": in.Chains[0]},
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(sim.Churn.Rejected); n != 1 || !strings.Contains(sim.Churn.Rejected[0], "already running") {
			t.Fatalf("want one already-running rejection, got %v", sim.Churn.Rejected)
		}
	})

	t.Run("double retirement", func(t *testing.T) {
		_, _, tb := deploy(t, hw.NewPaperTestbed(), failoverSpec, placer.SchemeLemur)
		plan, _ := chaos.Parse("retire:beta@0.05s;retire:beta@0.06s")
		sim, err := tb.Simulate([]float64{4e9, 4e9}, SimConfig{Seed: 3, DurationSec: 0.2, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(sim.Churn.Rejected); n != 1 || !strings.Contains(sim.Churn.Rejected[0], "already retiring") {
			t.Fatalf("want one already-retiring rejection, got %v", sim.Churn.Rejected)
		}
		// Both requests came due; only one was applied.
		if got := len(sim.Churn.Events); got != 2 {
			t.Fatalf("want 2 due events, got %d", got)
		}
		if got := len(sim.Churn.RewireSummaries); got != 1 {
			t.Fatalf("want 1 applied rewire, got %d", got)
		}
	})

	t.Run("unplaceable admission is rejected, not applied", func(t *testing.T) {
		// The admitted chain demands more than the rack can ever supply, so
		// the placer's verdict is non-incremental and the simulator records
		// it as a rejection rather than disrupting the run.
		_, _, tb := deploy(t, hw.NewPaperTestbed(), failoverSpec, placer.SchemeLemur)
		greedy := graphFor(t, `
chain greedy {
  slo { tmin = 10000Gbps  tmax = 20000Gbps }
  aggregate { src = 10.8.0.0/16 }
  mon0 = Monitor()
  fwd0 = IPv4Fwd()
  mon0 -> fwd0
}`)
		plan, _ := chaos.Parse("admit:greedy@0.05s")
		sim, err := tb.Simulate([]float64{4e9, 4e9}, SimConfig{
			Seed: 3, DurationSec: 0.15, Faults: plan,
			ChurnCatalog: map[string]*nfgraph.Graph{"greedy": greedy},
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(sim.Churn.Rejected); n != 1 || !strings.Contains(sim.Churn.Rejected[0], "infeasible") {
			t.Fatalf("want one infeasible rejection, got %v", sim.Churn.Rejected)
		}
		if len(sim.AchievedBps) != 2 {
			t.Fatalf("rejected admission grew the chain set: %d", len(sim.AchievedBps))
		}
	})

	t.Run("admit target missing from catalog", func(t *testing.T) {
		_, _, tb := deploy(t, hw.NewPaperTestbed(), failoverSpec, placer.SchemeLemur)
		plan, _ := chaos.Parse("admit:gamma@0.05s")
		if _, err := tb.Simulate([]float64{4e9, 4e9}, SimConfig{Seed: 3, DurationSec: 0.1, Faults: plan}); err == nil ||
			!strings.Contains(err.Error(), "churn catalog") {
			t.Fatalf("want catalog error, got %v", err)
		}
	})

	t.Run("faults and churn cannot be combined", func(t *testing.T) {
		_, _, tb := deploy(t, hw.NewPaperTestbed(), failoverSpec, placer.SchemeLemur)
		// The grammar takes both kinds in one schedule; the run refuses it,
		// whichever kind comes first.
		for _, sched := range []string{
			"retire:beta@0.05s;crash:nf-server-0@0.05s",
			"crash:nf-server-0@0.05s;retire:beta@0.06s",
		} {
			plan, err := chaos.Parse(sched)
			if err != nil {
				t.Fatal(err)
			}
			cfg := SimConfig{Seed: 3, DurationSec: 0.1, Faults: plan}
			if _, err := tb.Simulate([]float64{4e9, 4e9}, cfg); err == nil ||
				!strings.Contains(err.Error(), "cannot be combined") {
				t.Fatalf("%s: want combination error, got %v", sched, err)
			}
		}
	})
}
