package runtime

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"

	"lemur/internal/chaos"
	"lemur/internal/hw"
	"lemur/internal/obs"
	"lemur/internal/placer"
)

// failoverSpec places two independent server-using chains so a single
// server crash severs some of them while the surviving server keeps enough
// capacity for the incremental re-placement to succeed.
const failoverSpec = `
chain alpha {
  slo { tmin = 2Gbps  tmax = 100Gbps }
  aggregate { src = 10.1.0.0/16 }
  mon0 = Monitor()
  fwd0 = IPv4Fwd()
  mon0 -> fwd0
}
chain beta {
  slo { tmin = 2Gbps  tmax = 100Gbps }
  aggregate { src = 10.2.0.0/16 }
  nat0 = NAT()
  fwd0 = IPv4Fwd()
  nat0 -> fwd0
}`

// TestSimulateCrashFailover is the end-to-end failover demo: crash the
// server hosting a subgroup mid-run and check the full recovery arc —
// blackholed packets counted, downtime exactly the detection+reconfig
// window, an incremental rewire installed, and every chain's post-failover
// rate back inside its SLO.
func TestSimulateCrashFailover(t *testing.T) {
	in, res, tb := deploy(t, hw.NewPaperTestbed(hw.WithServers(2)), failoverSpec, placer.SchemeLemur)
	victim := res.Subgroups[0].Server
	dead := placer.NewNodeSet(victim).Expand(in.Topo)
	affected := map[int]bool{}
	for _, ci := range placer.AffectedChains(in, res, dead) {
		affected[ci] = true
	}
	if len(affected) == 0 {
		t.Fatalf("victim %s hosts no chain", victim)
	}

	plan, err := chaos.Parse("crash:" + victim + "@0.05s")
	if err != nil {
		t.Fatal(err)
	}
	offered := []float64{8e9, 8e9}
	sim, err := tb.Simulate(offered, SimConfig{Seed: 7, DurationSec: 0.3, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}

	fo := sim.Failover
	if fo == nil {
		t.Fatal("fault run produced no FailoverReport")
	}
	if len(fo.Events) != 1 || !strings.Contains(fo.Events[0], victim) {
		t.Fatalf("want one fired event naming %s, got %v", victim, fo.Events)
	}
	if fo.ReplaceError != "" {
		t.Fatalf("re-placement failed: %s", fo.ReplaceError)
	}
	if !strings.Contains(fo.RewireSummary, "rewire:") {
		t.Fatalf("missing rewire summary, got %q", fo.RewireSummary)
	}

	// Downtime: exactly the detection + reconfiguration window for severed
	// chains, zero for pinned ones.
	window := fo.DetectionDelaySec + fo.ReconfigDelaySec
	if window <= 0 {
		t.Fatalf("default delays expected, got detect=%g reconfig=%g", fo.DetectionDelaySec, fo.ReconfigDelaySec)
	}
	for ci := range in.Chains {
		got := fo.DowntimeSec[ci]
		if affected[ci] {
			if math.Abs(got-window) > 1e-9 {
				t.Errorf("chain %d downtime = %g, want detection+reconfig = %g", ci, got, window)
			}
		} else if got != 0 {
			t.Errorf("pinned chain %d accrued downtime %g", ci, got)
		}
	}

	drops := 0
	for _, n := range fo.FaultDrops {
		drops += n
	}
	if drops == 0 {
		t.Error("crash during live traffic produced zero fault drops")
	}

	// Post-failover SLO compliance: the window opens once the rewire lands
	// and every chain — including the re-placed ones — clears its SLO again.
	if fo.PostWindowSec < 0.2 {
		t.Errorf("post-failover window %g too short (crash@0.05 + %g delays, 0.3s run)", fo.PostWindowSec, window)
	}
	for ci, ok := range fo.PostSLOCompliant {
		if !ok {
			t.Errorf("chain %d post-failover rate %g bps violates its SLO", ci, fo.PostAchievedBps[ci])
		}
	}

	// The deployment really moved: the adopted placement has nothing left
	// on the dead server.
	if tb.D.Result == res {
		t.Error("deployment still holds the pre-crash placement")
	}
	for _, sg := range tb.D.Result.Subgroups {
		if sg.Server == victim {
			t.Errorf("subgroup %s still placed on crashed server %s", sg.Name(), victim)
		}
	}
}

// spanDurations matches the wall-clock span-duration fields in a metrics
// snapshot — the only legitimately nondeterministic values.
var spanDurations = regexp.MustCompile(`"duration_sec":\s*[0-9.e+-]+`)

// scrubWallClock removes wall-clock timing from a metrics snapshot (span
// durations and the lemur_span_seconds histogram) so the remainder can be
// compared byte-for-byte across runs.
func scrubWallClock(t *testing.T, snap []byte) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(snap, &m); err != nil {
		t.Fatal(err)
	}
	if raw, ok := m["histograms"]; ok {
		var hs []map[string]interface{}
		if err := json.Unmarshal(raw, &hs); err != nil {
			t.Fatal(err)
		}
		kept := hs[:0]
		for _, h := range hs {
			if h["name"] != "lemur_span_seconds" {
				kept = append(kept, h)
			}
		}
		b, err := json.Marshal(kept)
		if err != nil {
			t.Fatal(err)
		}
		m["histograms"] = b
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return spanDurations.ReplaceAll(out, []byte(`"duration_sec":0`))
}

// TestSimulateFailoverDeterministic: a crash-failover run is byte-identical
// — SimResult JSON and metrics snapshot (modulo span wall-clock durations)
// — across two fresh deployments with the same seed and fault plan, the
// property the failover section of experiments.Runner.WritePaper relies on.
func TestSimulateFailoverDeterministic(t *testing.T) {
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})

	run := func() ([]byte, []byte) {
		_, res, tb := deploy(t, hw.NewPaperTestbed(hw.WithServers(2)), failoverSpec, placer.SchemeLemur)
		plan, err := chaos.Parse("crash:" + res.Subgroups[0].Server + "@0.05s")
		if err != nil {
			t.Fatal(err)
		}
		obs.Reset()
		sim, err := tb.Simulate([]float64{8e9, 8e9}, SimConfig{Seed: 13, DurationSec: 0.25, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := json.Marshal(sim)
		if err != nil {
			t.Fatal(err)
		}
		return stats, scrubWallClock(t, metricsJSON(t))
	}

	statsA, metricsA := run()
	statsB, metricsB := run()
	if !bytes.Equal(statsA, statsB) {
		t.Errorf("same-seed failover SimResults differ:\n run A: %s\n run B: %s", statsA, statsB)
	}
	if !bytes.Equal(metricsA, metricsB) {
		t.Errorf("same-seed failover metrics snapshots differ:\n run A: %s\n run B: %s", metricsA, metricsB)
	}
	if !bytes.Contains(statsA, []byte("RewireSummary")) {
		t.Fatalf("failover run did not rewire: %s", statsA)
	}
}

// TestSimulateNoOpFaultPlanByteIdentical is the satellite property: running
// the simulator with a no-op fault plan (zero events, explicit zero delays)
// must be byte-identical — SimResult JSON and metrics snapshot — to the
// fault-free fast path, and a plan whose only event fires after the run
// ends must leave every packet-dynamics field identical too.
func TestSimulateNoOpFaultPlanByteIdentical(t *testing.T) {
	_, res, tb := deploy(t, hw.NewPaperTestbed(), multiSpec, placer.SchemeLemur)
	offered := []float64{res.ChainRates[0] * 1.2, res.ChainRates[1] * 0.8}

	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})

	run := func(plan *chaos.Plan) (*SimResult, []byte, []byte) {
		obs.Reset()
		sim, err := tb.Simulate(offered, SimConfig{Seed: 99, DurationSec: 0.2, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := json.Marshal(sim)
		if err != nil {
			t.Fatal(err)
		}
		return sim, stats, metricsJSON(t)
	}

	_, statsNil, metricsNil := run(nil)
	simNoop, statsNoop, metricsNoop := run(&chaos.Plan{DetectionDelaySec: -1, ReconfigDelaySec: -1})
	if simNoop.Failover != nil {
		t.Error("empty fault plan must not attach a FailoverReport")
	}
	if !bytes.Equal(statsNil, statsNoop) {
		t.Errorf("no-op fault plan perturbed SimResult:\n nil:   %s\n no-op: %s", statsNil, statsNoop)
	}
	if !bytes.Equal(metricsNil, metricsNoop) {
		t.Errorf("no-op fault plan perturbed metrics:\n nil:   %s\n no-op: %s", metricsNil, metricsNoop)
	}

	// An armed-but-dormant plan (event beyond DurationSec) walks the fault
	// branches every step yet must not perturb the packet dynamics.
	late, _, _ := run(&chaos.Plan{Events: []chaos.Event{{Kind: chaos.NFOverload, Target: tb.D.Input.Topo.Servers[0].Name, AtSec: 10, Factor: 2}}})
	if late.Failover == nil {
		t.Fatal("armed plan must attach a FailoverReport")
	}
	if len(late.Failover.Events) != 0 {
		t.Fatalf("event at t=10s fired in a 0.2s run: %v", late.Failover.Events)
	}
	stripped := *late
	stripped.Failover = nil
	strippedJSON, err := json.Marshal(&stripped)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(statsNil, strippedJSON) {
		t.Errorf("dormant fault plan perturbed packet dynamics:\n nil:     %s\n dormant: %s", statsNil, strippedJSON)
	}
}

// TestSimulateCrashUnrecoverable: crashing every server leaves Replace with
// no feasible placement — the report must say so, the severed chains stay
// down to the end of the run, and post-failover SLO compliance is false.
func TestSimulateCrashUnrecoverable(t *testing.T) {
	in, res, tb := deploy(t, hw.NewPaperTestbed(), failoverSpec, placer.SchemeLemur)
	const crashAt = 0.05
	plan := &chaos.Plan{}
	dead := placer.NodeSet{}
	for _, s := range in.Topo.Servers {
		plan.Events = append(plan.Events, chaos.Event{Kind: chaos.Crash, Target: s.Name, AtSec: crashAt})
		dead[s.Name] = true
	}
	affected := map[int]bool{}
	for _, ci := range placer.AffectedChains(in, res, dead.Expand(in.Topo)) {
		affected[ci] = true
	}
	if len(affected) == 0 {
		t.Fatal("no chain uses a server; crash cannot sever anything")
	}

	cfg := SimConfig{Seed: 5, DurationSec: 0.3, Faults: plan}
	sim, err := tb.Simulate([]float64{8e9, 8e9}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fo := sim.Failover
	if fo == nil {
		t.Fatal("no FailoverReport")
	}
	if fo.ReplaceError == "" {
		t.Fatal("crashing every server must make re-placement fail")
	}
	if fo.RewireSummary != "" {
		t.Fatalf("no rewire can have landed, got %q", fo.RewireSummary)
	}
	for ci := range in.Chains {
		if !affected[ci] {
			continue
		}
		want := cfg.DurationSec - crashAt
		if math.Abs(fo.DowntimeSec[ci]-want) > 1e-9 {
			t.Errorf("chain %d downtime = %g, want down-to-end %g", ci, fo.DowntimeSec[ci], want)
		}
		if fo.PostSLOCompliant[ci] {
			t.Errorf("chain %d reported SLO-compliant with every server dead", ci)
		}
	}
}

// TestSimulateDegradeAndOverload: capacity and cost faults fire without a
// rewire — no downtime, a post window from the fault onset, and a visible
// throughput hit on the chain hosted by the degraded server.
func TestSimulateDegradeAndOverload(t *testing.T) {
	_, res, tb := deploy(t, hw.NewPaperTestbed(), failoverSpec, placer.SchemeLemur)
	victim := res.Subgroups[0].Server
	ci := res.Subgroups[0].ChainIdx
	offered := []float64{res.ChainRates[0], res.ChainRates[1]}
	cfg := SimConfig{Seed: 21, DurationSec: 0.3}

	base, err := tb.Simulate(offered, cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, sched string
	}{
		{"degrade", "degrade:" + victim + "@0.1sx0.1"},
		{"overload", "overload:" + victim + "@0.1sx10"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := chaos.Parse(tc.sched)
			if err != nil {
				t.Fatal(err)
			}
			faultCfg := cfg
			faultCfg.Faults = plan
			sim, err := tb.Simulate(offered, faultCfg)
			if err != nil {
				t.Fatal(err)
			}
			fo := sim.Failover
			if fo == nil || len(fo.Events) != 1 {
				t.Fatalf("want one fired event, got %+v", fo)
			}
			for i, d := range fo.DowntimeSec {
				if d != 0 {
					t.Errorf("chain %d accrued downtime %g from a non-crash fault", i, d)
				}
			}
			if want := cfg.DurationSec - 0.1; math.Abs(fo.PostWindowSec-want) > 1e-9 {
				t.Errorf("post window %g, want %g (from fault onset)", fo.PostWindowSec, want)
			}
			if sim.AchievedBps[ci] >= base.AchievedBps[ci] {
				t.Errorf("%s on %s left chain %d throughput unchanged: %g >= %g",
					tc.name, victim, ci, sim.AchievedBps[ci], base.AchievedBps[ci])
			}
		})
	}
}

// TestSimulateFaultValidation: malformed fault targets are rejected before
// the run starts.
func TestSimulateFaultValidation(t *testing.T) {
	in, _, tb := deploy(t, hw.NewPaperTestbed(), failoverSpec, placer.SchemeLemur)
	offered := []float64{1e9, 1e9}
	for _, tc := range []struct {
		name string
		plan *chaos.Plan
		want string
	}{
		{"crash ToR", &chaos.Plan{Events: []chaos.Event{{Kind: chaos.Crash, Target: in.Topo.Switch.Name, AtSec: 0.1}}}, "ToR"},
		{"crash unknown", &chaos.Plan{Events: []chaos.Event{{Kind: chaos.Crash, Target: "no-such-box", AtSec: 0.1}}}, "not a server"},
		{"degrade non-server", &chaos.Plan{Events: []chaos.Event{{Kind: chaos.LinkDegrade, Target: in.Topo.Switch.Name, AtSec: 0.1, Factor: 0.5}}}, "not a server"},
		{"invalid factor", &chaos.Plan{Events: []chaos.Event{{Kind: chaos.LinkDegrade, Target: "x", AtSec: 0.1, Factor: 2}}}, "factor"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tb.Simulate(offered, SimConfig{Seed: 1, DurationSec: 0.05, Faults: tc.plan})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// TestSimulateRejectsNonFinitePlan: a hand-built plan whose time or factor is
// NaN or infinite is rejected before the run starts. A NaN time is never due,
// so a run that took one would look for its firing step forever; the wait is
// bounded so that regression fails instead of hanging the suite.
func TestSimulateRejectsNonFinitePlan(t *testing.T) {
	in, _, tb := deploy(t, hw.NewPaperTestbed(), failoverSpec, placer.SchemeLemur)
	server := in.Topo.Servers[0].Name
	for _, ev := range []chaos.Event{
		{Kind: chaos.Crash, Target: server, AtSec: math.NaN()},
		{Kind: chaos.Crash, Target: server, AtSec: math.Inf(1)},
		{Kind: chaos.LinkDegrade, Target: server, AtSec: 0.01, Factor: math.NaN()},
	} {
		done := make(chan error, 1)
		go func() {
			plan := &chaos.Plan{Events: []chaos.Event{ev}}
			_, err := tb.Simulate([]float64{1e9, 1e9}, SimConfig{Seed: 1, DurationSec: 0.05, Faults: plan})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "not finite") {
				t.Fatalf("Simulate with %+v: want a not-finite error, got %v", ev, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Simulate with %+v did not return within 10 s", ev)
		}
	}
}
