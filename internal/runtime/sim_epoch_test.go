package runtime

import (
	"math"
	goruntime "runtime"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/placer"
)

// runEngine builds and runs one engine the way Simulate does, handing back
// the engine so tests can read its internals (epoch count, shard count).
func runEngine(t *testing.T, tb *Testbed, offered []float64, cfg SimConfig) (*simEngine, *SimResult) {
	t.Helper()
	eng, err := tb.newSimEngine(offered, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.run(); err != nil {
		t.Fatal(err)
	}
	return eng, eng.finish()
}

// TestSimulateEpochContract pins what bounds an epoch of the one run loop:
// a plan-free run is a single epoch however many shards execute it; a
// fault plan barriers only where an event fires or a rewire lands, so its
// epoch count is independent of the run's length; and a churn admission
// adds single-step epochs only until the admitted chain's first egress.
func TestSimulateEpochContract(t *testing.T) {
	t.Run("fault-free is one epoch", func(t *testing.T) {
		tb, offered, cfg := goldenFaults(3, "", 0.2)(t)
		cfg.Workers = 4
		eng, _ := runEngine(t, tb, offered, cfg)
		if len(eng.shards) < 2 {
			t.Fatalf("want a multi-shard run, got %d shard(s)", len(eng.shards))
		}
		if eng.epochs != 1 || eng.steps != 200 {
			t.Fatalf("fault-free run: %d epochs over %d steps, want 1 over 200", eng.epochs, eng.steps)
		}
	})

	t.Run("fault plan barriers at events and landings only", func(t *testing.T) {
		// Three events fire, two crash rewires land: at most 3+2+1 epochs.
		var counts []int
		for _, dur := range []float64{0.5, 1.0, 2.0} {
			for _, w := range []int{1, 2} {
				tb, offered, cfg := goldenFaults(4, goldenCrashPlan, dur)(t)
				cfg.Workers = w
				eng, sim := runEngine(t, tb, offered, cfg)
				if n := len(sim.Failover.Events); n != 3 {
					t.Fatalf("dur=%g: %d events fired, want 3", dur, n)
				}
				if eng.epochs > 3+2+1 {
					t.Fatalf("dur=%g workers=%d: %d epochs over %d steps, want <= 6", dur, w, eng.epochs, eng.steps)
				}
				counts = append(counts, eng.epochs)
			}
		}
		for _, n := range counts[1:] {
			if n != counts[0] {
				t.Fatalf("epoch count depends on duration or workers: %v", counts)
			}
		}
	})

	t.Run("churn admit single-steps until first egress", func(t *testing.T) {
		for _, w := range []int{1, 2} {
			tb, offered, cfg := goldenChurn(t)
			cfg.Workers = w
			eng, sim := runEngine(t, tb, offered, cfg)
			ch := sim.Churn
			if len(ch.AdmitLatencySec) != 3 || ch.AdmitLatencySec[2] <= 0 {
				t.Fatalf("gamma was not admitted: %+v", ch)
			}
			// Steps from the landing to the end of the step gamma first
			// egressed in; each is its own epoch.
			waiting := int(math.Round((ch.AdmitLatencySec[2] - ch.DetectionDelaySec - ch.ReconfigDelaySec) / 1e-3))
			if limit := 2 + 2 + 1 + waiting; eng.epochs > limit {
				t.Fatalf("workers=%d: %d epochs, want <= %d (2 events, 2 landings, %d waiting steps)", w, eng.epochs, limit, waiting)
			}
		}
	})
}

// simMallocs runs one Simulate over a freshly built testbed and returns the
// heap objects and bytes it allocated and the packets it injected. Unlike
// testing.AllocsPerRun it keeps the build — placement and compile, which a
// fault run cannot reuse because the crash rewires the deployment — out of
// the measurement.
func simMallocs(t *testing.T, build func(*testing.T) (*Testbed, []float64, SimConfig), workers int) (mallocs, bytes float64, injected int) {
	t.Helper()
	const runs = 3
	var objs, size uint64
	for i := 0; i <= runs; i++ { // run 0 warms pools and caches
		tb, offered, cfg := build(t)
		cfg.Workers = workers
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		sim, err := tb.Simulate(offered, cfg)
		goruntime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			objs += after.Mallocs - before.Mallocs
			size += after.TotalAlloc - before.TotalAlloc
		}
		injected = 0
		for _, n := range sim.Injected {
			injected += n
		}
	}
	return float64(objs) / runs, float64(size) / runs, injected
}

// faultPlanAllocBudget is TestSimulateParallelAllocBudget's fault-plan arm:
// crash/overload/crash at Workers 2 — two rewires, three re-partitions —
// stays under 0.13 allocations per packet, and the driver's own
// allocations follow the epoch count, not the step count: the same plan
// over twice the simulated time at half the offered rate (equal packets,
// twice the steps) allocates no more.
func faultPlanAllocBudget(t *testing.T) {
	t.Helper()
	short := goldenFaults(4, goldenCrashPlan, 1.0)
	long := func(t *testing.T) (*Testbed, []float64, SimConfig) {
		tb, offered, cfg := goldenFaults(4, goldenCrashPlan, 2.0)(t)
		for i := range offered {
			offered[i] /= 2
		}
		return tb, offered, cfg
	}

	mShort, _, pShort := simMallocs(t, short, 2)
	mLong, _, pLong := simMallocs(t, long, 2)
	t.Logf("1 s: %.0f allocs, %d packets (%.3f/pkt); 2 s at half rate: %.0f allocs, %d packets",
		mShort, pShort, mShort/float64(pShort), mLong, pLong)
	if pShort == 0 || math.Abs(float64(pLong-pShort)) > 0.01*float64(pShort) {
		t.Fatalf("runs are not packet-matched: %d vs %d", pShort, pLong)
	}
	const budget = 0.13 // 1.5x the 0.084 measured
	if perPkt := mShort / float64(pShort); perPkt > budget {
		t.Fatalf("allocation regression: %.3f allocs/packet exceeds the %.2f budget", perPkt, budget)
	}
	// 1% covers the packet-count mismatch allowed above; a per-step cost
	// (the 1 000 extra steps) would show as thousands of allocations.
	if mLong > mShort*1.01 {
		t.Fatalf("driver allocations grow with steps: %.0f allocs over 2000 steps vs %.0f over 1000", mLong, mShort)
	}
}

// TestSimulateStepCount pins the step count to the nearest whole number of
// steps. Truncating DurationSec/StepSec lost a step whenever the quotient
// fell a floating-point hair short (0.35, 0.7 and 1.4 s at the 1 ms step
// ran 349, 699 and 1 399 steps) while the reported rates still divided by
// the full duration. Injected packets must match offered x duration.
func TestSimulateStepCount(t *testing.T) {
	_, res, tb := deploy(t, hw.NewPaperTestbed(), simpleSpec, placer.SchemeLemur)
	offered := []float64{res.ChainRates[0] * 0.5}
	for _, tc := range []struct {
		dur   float64
		steps int
	}{{0.35, 350}, {0.7, 700}, {1.4, 1400}, {0.2, 200}} {
		eng, sim := runEngine(t, tb, offered, SimConfig{Seed: 3, DurationSec: tc.dur, Scale: 100})
		if eng.steps != tc.steps {
			t.Errorf("DurationSec %g: %d steps, want %d", tc.dur, eng.steps, tc.steps)
		}
		want := offered[0] * tc.dur / placer.DefaultFrameBits / 100
		if got := float64(sim.Injected[0]); math.Abs(got-want) > 1 {
			t.Errorf("DurationSec %g: injected %v packets, offered x duration is %.1f", tc.dur, got, want)
		}
	}
}
