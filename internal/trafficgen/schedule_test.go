package trafficgen

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"lemur/internal/packet"
)

// TestScheduleLongLivedMatchesGenerator: the pre-generated LongLived
// schedule must contain exactly the tuples New(cfg) pre-draws, in order,
// all born at 0.
func TestScheduleLongLivedMatchesGenerator(t *testing.T) {
	cfg := Config{Mode: LongLived, Flows: 64, Seed: 11}
	s, err := ScheduleInto(nil, cfg, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Tuples) != 64 {
		t.Fatalf("arena length = %d, want 64", len(s.Tuples))
	}
	for i, tu := range s.Tuples {
		if tu != g.flows[i] {
			t.Fatalf("tuple %d: schedule %v != generator %v", i, tu, g.flows[i])
		}
		if s.bornAt(i) != 0 {
			t.Fatalf("long-lived flow %d born %v, want 0", i, s.bornAt(i))
		}
	}
	if s.LifeSec != 0 {
		t.Fatalf("long-lived LifeSec = %v, want 0 (immortal)", s.LifeSec)
	}
}

// TestScheduleReuseAndDeterminism: regenerating into the same arenas must
// be byte-identical and must not reallocate when capacity suffices.
func TestScheduleReuseAndDeterminism(t *testing.T) {
	cfg := Config{Mode: ShortLived, NewFlowsSec: 500, Seed: 4}
	a, err := ScheduleInto(nil, cfg, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]packet.FiveTuple(nil), a.Tuples...)
	p0 := &a.Tuples[0]
	b, err := ScheduleInto(a, cfg, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Fatal("ScheduleInto must return dst")
	}
	if &a.Tuples[0] != p0 {
		t.Error("regeneration reallocated the tuple arena despite capacity")
	}
	if len(a.Tuples) != len(snapshot) {
		t.Fatalf("regeneration changed length %d -> %d", len(snapshot), len(a.Tuples))
	}
	for i := range snapshot {
		if a.Tuples[i] != snapshot[i] {
			t.Fatalf("tuple %d diverged on regeneration", i)
		}
	}
}

// TestScheduleIntoRejects: configs that would leave a schedule nothing can
// replay — no flow to pick, or births that never reach the horizon — are
// errors, and a rejected config leaves the arena it was aimed at alone. New
// rejects each of them too.
func TestScheduleIntoRejects(t *testing.T) {
	good := Config{Mode: ShortLived, NewFlowsSec: 100, Seed: 2}
	dst, err := ScheduleInto(nil, good, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]packet.FiveTuple(nil), dst.Tuples...)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"bad source prefix", Config{SrcCIDR: "bogus"}},
		{"unknown mode", Config{Mode: Mode(7)}},
		{"negative flow count", Config{Mode: LongLived, Flows: -1}},
		{"negative arrival rate", Config{Mode: ShortLived, NewFlowsSec: -5}},
		{"pool of half a flow", Config{Mode: ShortLived, NewFlowsSec: 1, LifeSec: 0.5}},
		{"pool of 0.99 flows", Config{Mode: ShortLived, NewFlowsSec: 99, LifeSec: 0.01}},
	} {
		if _, err := ScheduleInto(dst, tc.cfg, 0.5); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
		if len(dst.Tuples) != len(want) || dst.Tuples[0] != want[0] || dst.bornAt(1) != -1+0.01 {
			t.Fatalf("%s: the rejected config changed dst", tc.name)
		}
		// The incremental generator refuses the same config rather than
		// panicking on its first frame.
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: New: no error", tc.name)
		}
	}
	// A pool of exactly one flow runs in both sources.
	one := Config{Mode: ShortLived, NewFlowsSec: 2, LifeSec: 0.5}
	if _, err := ScheduleInto(nil, one, 0.5); err != nil {
		t.Errorf("one-flow pool: ScheduleInto: %v", err)
	}
	g, err := New(one)
	if err != nil {
		t.Fatalf("one-flow pool: New: %v", err)
	}
	for i := 0; i < 4; i++ {
		g.NextInto(nil, float64(i)*0.3)
	}
}

// TestBornAtMatchesStored: bornAt is bit for bit the birth time the
// schedule used to store per flow — 0 for immortal flows, and for churn the
// value of the fill loop's own expression.
func TestBornAtMatchesStored(t *testing.T) {
	long, err := ScheduleInto(nil, Config{Mode: LongLived, Flows: 1000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range long.Tuples {
		if math.Float64bits(long.bornAt(i)) != 0 {
			t.Fatalf("immortal flow %d born %v, want +0", i, long.bornAt(i))
		}
	}
	for _, rate := range []int{10_000, 100_000, 333_333} {
		cfg := Config{Mode: ShortLived, NewFlowsSec: rate, LifeSec: 0.5}
		s, err := ScheduleInto(nil, cfg, 0) // the arithmetic does not need the arena
		if err != nil {
			t.Fatal(err)
		}
		ia := 1 / float64(cfg.NewFlowsSec)
		for i := 0; i < 1_000_000; i++ {
			stored := -cfg.LifeSec + float64(i)*ia
			if math.Float64bits(s.bornAt(i)) != math.Float64bits(stored) {
				t.Fatalf("rate %d flow %d: bornAt %v != stored %v", rate, i, s.bornAt(i), stored)
			}
		}
		// The arena ends at the last birth inside the horizon.
		if n := len(s.Tuples); s.bornAt(n-1) > 0 || s.bornAt(n) <= 0 {
			t.Fatalf("rate %d: %d flows, births %v and %v around horizon 0", rate, n, s.bornAt(n-1), s.bornAt(n))
		}
	}
}

// TestScheduleChurnWindow checks the ShortLived schedule's live-window
// semantics: steady-state population from t=0, births in nondecreasing
// order (so retirement order equals birth order), and FlowsAt agreeing
// with a brute-force liveness scan.
func TestScheduleChurnWindow(t *testing.T) {
	cfg := Config{Mode: ShortLived, NewFlowsSec: 200, Seed: 9}
	s, err := ScheduleInto(nil, cfg, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(s.Tuples); i++ {
		if s.bornAt(i) < s.bornAt(i-1) {
			t.Fatalf("births out of order at %d", i)
		}
	}
	for _, now := range []float64{0, 0.1, 0.25, 0.5} {
		head, tail := s.FlowsAt(now)
		brute := 0
		for i := range s.Tuples {
			if s.bornAt(i) <= now && s.bornAt(i)+s.LifeSec > now {
				brute++
				if i < head || i >= tail {
					t.Fatalf("live flow %d outside window [%d,%d) at t=%v", i, head, tail, now)
				}
			}
		}
		if tail-head != brute {
			t.Fatalf("window %d != brute count %d at t=%v", tail-head, brute, now)
		}
		if got := tail - head; got < 190 || got > 210 {
			t.Errorf("population %d at t=%v, want ≈200", got, now)
		}
	}
}

// TestScheduledGenReplay: the replay generator emits frames with the same
// layout contract as Generator, tracks the window incrementally, and is
// deterministic under seed.
func TestScheduledGenReplay(t *testing.T) {
	cfg := Config{Mode: ShortLived, NewFlowsSec: 300, Seed: 21}
	s, err := ScheduleInto(nil, cfg, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *ScheduleGen {
		sg, err := NewScheduled(cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		return sg
	}
	a, b := mk(), mk()
	if a.FlowCount() < 290 || a.FlowCount() > 310 {
		t.Errorf("t=0 population %d, want ≈300", a.FlowCount())
	}
	var buf []byte
	for i := 0; i < 2000; i++ {
		now := float64(i) * 0.0002
		fa := a.NextInto(buf, now)
		buf = fa[:0]
		pb := next(b, now)
		if !bytes.Equal(fa, pb.Data) {
			t.Fatalf("packet %d: recycled and fresh buffers diverged", i)
		}
		if len(fa) != DefaultFrameBytes-packet.NSHLen {
			t.Fatalf("frame %d bytes, want %d", len(fa), DefaultFrameBytes-packet.NSHLen)
		}
		head, tail := s.FlowsAt(now)
		if a.head != head || a.tail != tail {
			t.Fatalf("incremental window [%d,%d) != binary-search [%d,%d) at t=%v",
				a.head, a.tail, head, tail, now)
		}
	}
}

// legacyChurnGen replicates the pre-fix ShortLived retirement algorithm —
// rebuild the whole flow/born arrays on every emission — as the oracle for
// the expiry-window regression test. The rng draw sequence (redundant
// chunk, tuple synthesis, flow selection) is the one the real generator
// uses, so tuple streams must match exactly.
type legacyChurnGen struct {
	cfg   Config
	rng   *rand.Rand
	sp    addrSpace
	flows []packet.FiveTuple
	born  []float64
}

func newLegacyChurn(t *testing.T, cfg Config) *legacyChurnGen {
	cfg = cfg.withDefaults()
	sp, err := parseSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := &legacyChurnGen{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed + 1)), sp: sp}
	g.rng.Read(make([]byte, 64))
	return g
}

func (g *legacyChurnGen) nextTuple(nowSec float64) packet.FiveTuple {
	live := g.flows[:0]
	liveBorn := g.born[:0]
	for i, f := range g.flows {
		if nowSec-g.born[i] < g.cfg.LifeSec {
			live = append(live, f)
			liveBorn = append(liveBorn, g.born[i])
		}
	}
	g.flows, g.born = live, liveBorn
	target := int(float64(g.cfg.NewFlowsSec) * g.cfg.LifeSec)
	if len(g.flows) < target {
		g.flows = append(g.flows, synthTuple(g.rng, g.sp, &g.cfg))
		g.born = append(g.born, nowSec)
	}
	return g.flows[g.rng.Intn(len(g.flows))]
}

// TestShortLivedRetirementMatchesLegacy pins the expiry-window fix: the
// O(1)-amortized head-advance retirement must yield the same same-seed
// tuple sequence and live population as the original O(n)-per-packet
// rebuild, across several seeds and enough simulated time to cross many
// lifetimes (including the compaction path).
func TestShortLivedRetirementMatchesLegacy(t *testing.T) {
	for _, seed := range []int64{1, 7, 1234} {
		cfg := Config{Mode: ShortLived, NewFlowsSec: 400, Seed: seed}
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		l := newLegacyChurn(t, cfg)
		for i := 0; i < 12000; i++ {
			now := float64(i) * 0.00075 // 9 s: ~9 lifetimes of churn
			got := g.nextTuple(now)
			want := l.nextTuple(now)
			if got != want {
				t.Fatalf("seed %d packet %d: tuple %v != legacy %v", seed, i, got, want)
			}
			if g.FlowCount() != len(l.flows) {
				t.Fatalf("seed %d packet %d: population %d != legacy %d",
					seed, i, g.FlowCount(), len(l.flows))
			}
		}
		if g.head == 0 {
			t.Fatalf("seed %d: 9 s of churn never advanced the expiry window", seed)
		}
	}
}

// FuzzFlowSchedule fuzzes the arena schedule generator: regeneration must
// be byte-identical under a fixed seed, births must be nondecreasing (so
// retirement order equals birth order), and the replay window must equal a
// brute-force liveness scan at every sampled time — the round-trip
// property schedule → replay → same live-flow population as incremental
// evaluation of the same schedule.
func FuzzFlowSchedule(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(40), uint16(100), 0.2)
	f.Add(int64(7), uint8(1), uint16(10), uint16(500), 1.5)
	f.Add(int64(-3), uint8(1), uint16(1), uint16(1), 0.0)
	f.Fuzz(func(t *testing.T, seed int64, mode uint8, flows, rate uint16, horizon float64) {
		cfg := Config{
			Mode:        Mode(mode % 2),
			Flows:       int(flows%2048) + 1,
			NewFlowsSec: int(rate%4096) + 1,
			Seed:        seed,
		}
		if math.IsNaN(horizon) || horizon < 0 || horizon > 2 {
			horizon = 0.5
		}
		s, err := ScheduleInto(nil, cfg, horizon)
		if err != nil {
			t.Fatal(err)
		}
		again, err := ScheduleInto(nil, cfg, horizon)
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Tuples) != len(s.Tuples) {
			t.Fatalf("regeneration length %d != %d", len(again.Tuples), len(s.Tuples))
		}
		for i := range s.Tuples {
			if s.Tuples[i] != again.Tuples[i] || s.bornAt(i) != again.bornAt(i) {
				t.Fatalf("regeneration diverged at %d", i)
			}
			if i > 0 && s.bornAt(i) < s.bornAt(i-1) {
				t.Fatalf("births out of order at %d", i)
			}
		}
		sg, err := NewScheduled(cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= 16; i++ {
			now := horizon * float64(i) / 16
			if horizon == 0 {
				now = 0
			}
			sg.NextInto(nil, now)
			brute := 0
			for j := range s.Tuples {
				if s.bornAt(j) <= now && (s.LifeSec <= 0 || s.bornAt(j)+s.LifeSec > now) {
					brute++
					if j < sg.head || j >= sg.tail {
						t.Fatalf("live flow %d outside replay window [%d,%d) at t=%v",
							j, sg.head, sg.tail, now)
					}
				}
			}
			if sg.tail-sg.head != brute {
				t.Fatalf("replay window %d != brute population %d at t=%v",
					sg.tail-sg.head, brute, now)
			}
		}
	})
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/schedulegen.golden from the current generator")

// TestScheduleGenDigest pins the bytes ScheduleGen emits: a SHA-256 over the
// first 2 000 frames of an immortal and of a churning schedule, held to
// testdata/schedulegen.golden. The file was generated on the commit before
// Schedule lost its hash and birth-time arenas, so it holds every later
// shape of the schedule to the same tuples, the same window arithmetic and
// the same rng draw order.
func TestScheduleGenDigest(t *testing.T) {
	var got bytes.Buffer
	for _, cfg := range []Config{
		{Mode: LongLived, Flows: 5000, Seed: 31, Redundancy: 0.3, HTTPShare: 0.2},
		{Mode: ShortLived, NewFlowsSec: 3333, LifeSec: 0.25, Seed: 32, Proto: packet.IPProtoTCP, DstPort: 443},
	} {
		s, err := ScheduleInto(nil, cfg, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		sg, err := NewScheduled(cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var buf []byte
		for i := 0; i < 2000; i++ {
			// 1.2 s in all: the churn window turns over four times and
			// runs past the schedule's horizon.
			frame := sg.NextInto(buf, float64(i)*0.0006)
			h.Write(frame)
			buf = frame[:0]
		}
		fmt.Fprintf(&got, "mode=%d flows=%d live=%d sha256=%x\n", cfg.Mode, len(s.Tuples), sg.FlowCount(), h.Sum(nil))
	}
	path := filepath.Join("testdata", "schedulegen.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got.Bytes()) {
		t.Fatalf("schedulegen.golden differs\nwant:\n%sgot:\n%s", want, got.Bytes())
	}
}

// FlowsAt returns the indices [head, tail) of flows live at nowSec: born no
// later than nowSec and not yet expired. O(log n); the replay generator
// tracks the same window incrementally.
func (s *Schedule) FlowsAt(nowSec float64) (head, tail int) {
	tail = sort.Search(len(s.Tuples), func(i int) bool { return s.bornAt(i) > nowSec })
	if s.LifeSec <= 0 {
		return 0, tail
	}
	// Expiry predicate is born+life <= now everywhere (here, the replay
	// window, and the tests' brute-force scans) — mixing algebraically
	// equivalent forms like born <= now-life is not float-safe.
	head = sort.Search(tail, func(i int) bool { return s.bornAt(i)+s.LifeSec > nowSec })
	return head, tail
}

// FlowCount returns the live-flow population as of the last emission.
func (sg *ScheduleGen) FlowCount() int {
	if n := sg.tail - sg.head; n > 0 {
		return n
	}
	return 0
}

// FlowCount returns the current live-flow population.
func (g *Generator) FlowCount() int { return len(g.flows) - g.head }
