package runtime

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/placer"
)

func TestSimulateUnderloadMatchesOffered(t *testing.T) {
	_, res, tb := deploy(t, hw.NewPaperTestbed(), simpleSpec, placer.SchemeLemur)
	// Offer half the placed rate: everything should get through with no
	// queueing to speak of.
	offered := []float64{res.ChainRates[0] * 0.5}
	sim, err := tb.Simulate(offered, SimConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Injected[0] == 0 {
		t.Fatal("no packets injected")
	}
	if sim.DropRate[0] > 0.01 {
		t.Errorf("drop rate %v under light load", sim.DropRate[0])
	}
	if r := sim.AchievedBps[0] / offered[0]; r < 0.95 || r > 1.05 {
		t.Errorf("achieved/offered = %v (achieved %v offered %v)", r, sim.AchievedBps[0], offered[0])
	}
	if sim.AvgQueueDelaySec[0] > 1e-3 {
		t.Errorf("queue delay %v under light load", sim.AvgQueueDelaySec[0])
	}
}

func TestSimulateOverloadCapsAndDrops(t *testing.T) {
	_, res, tb := deploy(t, hw.NewPaperTestbed(), simpleSpec, placer.SchemeLemur)
	// Offer 3x the sustainable rate: throughput caps near capacity and the
	// excess drops.
	offered := []float64{res.ChainRates[0] * 3}
	sim, err := tb.Simulate(offered, SimConfig{Seed: 5, DurationSec: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if sim.DropRate[0] < 0.3 {
		t.Errorf("drop rate %v under 3x overload, want substantial", sim.DropRate[0])
	}
	// Achieved stays in the vicinity of the placed capacity (generous band:
	// the realized cycle costs sit below worst case).
	cap := res.ChainRates[0]
	if sim.AchievedBps[0] > cap*1.25 {
		t.Errorf("achieved %v far above capacity %v", sim.AchievedBps[0], cap)
	}
	if sim.AchievedBps[0] < cap*0.6 {
		t.Errorf("achieved %v far below capacity %v", sim.AchievedBps[0], cap)
	}
	// Queueing is visible under overload.
	if sim.AvgQueueDelaySec[0] <= 0 {
		t.Error("no queue delay under overload")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	_, res, tb := deploy(t, hw.NewPaperTestbed(), simpleSpec, placer.SchemeLemur)
	offered := []float64{res.ChainRates[0]}
	a, err := tb.Simulate(offered, SimConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := tb.Simulate(offered, SimConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.Egressed[0] != b.Egressed[0] || math.Abs(a.AchievedBps[0]-b.AchievedBps[0]) > 1 {
		t.Errorf("same seed diverged: %v vs %v", a.Egressed[0], b.Egressed[0])
	}
}

func TestSimulateMultiChainIsolation(t *testing.T) {
	src := simpleSpec + `
chain other {
  slo { tmin = 1Gbps  tmax = 100Gbps }
  aggregate { src = 11.77.0.0/16 }
  mon0 = Monitor()
  fwd1 = IPv4Fwd()
  mon0 -> fwd1
}`
	_, res, tb := deploy(t, hw.NewPaperTestbed(), src, placer.SchemeLemur)
	// Overload chain 0 only; chain 1 must still get its traffic through
	// (separate subgroups, separate cores).
	offered := []float64{res.ChainRates[0] * 3, res.ChainRates[1] * 0.5}
	sim, err := tb.Simulate(offered, SimConfig{Seed: 4, DurationSec: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if sim.DropRate[1] > 0.02 {
		t.Errorf("victim chain dropped %v despite run-to-completion isolation", sim.DropRate[1])
	}
	if sim.DropRate[0] < 0.2 {
		t.Errorf("overloaded chain dropped only %v", sim.DropRate[0])
	}
}

func TestSimulateBadInput(t *testing.T) {
	_, _, tb := deploy(t, hw.NewPaperTestbed(), simpleSpec, placer.SchemeLemur)
	if _, err := tb.Simulate([]float64{1, 2, 3}, SimConfig{}); err == nil {
		t.Error("want error for wrong offered length")
	}
}

func TestSimulateP99Ordering(t *testing.T) {
	_, res, tb := deploy(t, hw.NewPaperTestbed(), simpleSpec, placer.SchemeLemur)
	sim, err := tb.Simulate([]float64{res.ChainRates[0] * 2}, SimConfig{Seed: 2, DurationSec: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if sim.P99QueueDelaySec[0] < sim.AvgQueueDelaySec[0] {
		t.Errorf("p99 %v < mean %v", sim.P99QueueDelaySec[0], sim.AvgQueueDelaySec[0])
	}
	if sim.P99QueueDelaySec[0] <= 0 {
		t.Error("no p99 delay under overload")
	}
}

// TestPacketRingGrowsToOccupancy holds packetRing to a slice FIFO under
// random parks and served-prefix pops that wrap it, so that it also grows
// while wrapped. A ring holds no buffer until its first park, doubles from
// minRing and never outgrows the queue cap; served slots are cleared. An
// engine installs no ring buffer, and a crash at the first step drains
// rings that never parked.
func TestPacketRingGrowsToOccupancy(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, limit := range []int{1, 5, 16, 100, 256} {
		var r packetRing
		r.popServed(0)
		var fifo []*simPacket
		wrappedGrowths := 0
		for op := 0; op < 4000; op++ {
			if rng.Intn(3) > 0 && r.n < limit {
				if r.n == len(r.buf) && r.head > 0 {
					wrappedGrowths++
				}
				p := &simPacket{chain: op}
				r.push(p, limit)
				fifo = append(fifo, p)
			} else {
				k := rng.Intn(min(r.n, 3) + 1)
				r.popServed(k)
				fifo = fifo[k:]
			}
			if c := len(r.buf); c > limit || c != limit && c&(c-1) != 0 || c > 0 && c < min(minRing, limit) {
				t.Fatalf("limit %d: a ring of %d slots", limit, c)
			}
			if r.n != len(fifo) {
				t.Fatalf("limit %d op %d: ring holds %d, FIFO %d", limit, op, r.n, len(fifo))
			}
			held := 0
			for _, p := range r.buf {
				if p != nil {
					held++
				}
			}
			if held != r.n {
				t.Fatalf("limit %d op %d: %d slots set for %d parked packets", limit, op, held, r.n)
			}
			for i, p := range fifo {
				if r.at(i) != p {
					t.Fatalf("limit %d op %d: at(%d) is packet %d, want %d", limit, op, i, r.at(i).chain, p.chain)
				}
			}
		}
		if limit > minRing && wrappedGrowths == 0 {
			t.Errorf("limit %d: the ring never grew while wrapped", limit)
		}
	}

	tb, offered, cfg := goldenFaults(3, "crash:%[1]s@0s;crash:%[2]s@0s", 0.1)(t)
	eng, err := tb.newSimEngine(offered, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range eng.rings {
		if eng.rings[i].buf != nil {
			t.Fatalf("install allocated a %d-slot ring for entry %d", len(eng.rings[i].buf), i)
		}
	}
	if err := eng.run(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.finish(); err != nil {
		t.Fatal(err)
	}
}

// TestSimulateRejectsNonFiniteOffered: an infinite offered rate would
// inject packets forever, so Simulate refuses it, and NaN, up front.
func TestSimulateRejectsNonFiniteOffered(t *testing.T) {
	_, _, tb := deploy(t, hw.NewPaperTestbed(), simpleSpec, placer.SchemeLemur)
	for _, r := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if _, err := tb.Simulate([]float64{r}, SimConfig{Seed: 1}); err == nil || !strings.Contains(err.Error(), "not finite") {
			t.Errorf("offered %v: want a not-finite error, got %v", r, err)
		}
	}
}

// TestSimulateSteeringLoopIsError: a frame that never leaves the rack means
// the deployment is broken, so the simulator reports the hop budget, as
// Verify's walk does, instead of counting a drop. Zeroing every server
// subgroup's SI advance returns each frame to the switch tagged for the
// subgroup it just left, and it bounces between switch and server. Checked
// for the engine on one and two shards and for the per-packet reference.
func TestSimulateSteeringLoopIsError(t *testing.T) {
	looped := func() (*Testbed, []float64) {
		_, res, tb := deployRestricted(t, hw.NewPaperTestbed(), simpleSpec, placer.SchemeLemur,
			map[string][]hw.Platform{"ACL": {hw.Server}, "IPv4Fwd": {hw.PISA}})
		for _, pl := range tb.D.Pipelines {
			for _, sg := range pl.Subgroups() {
				sg.AdvanceSI = 0
			}
		}
		return tb, res.ChainRates
	}
	// Scale 1 gives a subgroup the credit for a whole loop in one step.
	cfg := SimConfig{DurationSec: 0.002, Scale: 1}
	runs := map[string]func(tb *Testbed, offered []float64) error{
		"workers=1": func(tb *Testbed, offered []float64) error {
			c := cfg
			c.Workers = 1
			_, err := tb.Simulate(offered, c)
			return err
		},
		"workers=2": func(tb *Testbed, offered []float64) error {
			c := cfg
			c.Workers = 2
			_, err := tb.Simulate(offered, c)
			return err
		},
		"reference": func(tb *Testbed, offered []float64) error {
			_, err := tb.simulateReference(offered, cfg)
			return err
		},
	}
	for name, run := range runs {
		tb, offered := looped()
		if err := run(tb, offered); err == nil || !strings.Contains(err.Error(), "hop budget") {
			t.Errorf("%s: err = %v, want the hop budget", name, err)
		}
	}
}
