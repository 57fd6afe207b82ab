package trafficgen

import (
	"math/rand"

	"lemur/internal/packet"
)

// Arena flow schedules. The incremental Generator synthesizes flows as the
// simulation advances, which is fine at footnote-6 populations (tens of
// flows, 10k/s churn) but not at the million-flow scale experiments: the
// runtime wants the whole flow population materialized up front, in one
// flat array the GC never walks per-flow, with packet emission reduced to an
// index draw. A Schedule is exactly that — every flow the aggregate will
// ever contain, pre-generated deterministically from the config seed into a
// reusable arena.
//
// Lifetimes are constant (Config.LifeSec) and births evenly spaced, so a
// flow's birth time is arithmetic on its index, flows expire in birth order
// and the live population is always a contiguous [head, tail) window over
// the arena. Advancing the window is O(1) amortized per packet — no
// retirement scan, no per-packet tuple allocation.

// Schedule holds one aggregate's pre-generated flow population: one arena of
// five-tuples in birth order. LifeSec is the constant flow lifetime; 0 means
// flows never expire (LongLived). Flow i is born at bornAt(i).
type Schedule struct {
	Tuples  []packet.FiveTuple
	LifeSec float64

	// Births step by gapSec from firstSec; both are 0 for immortal flows.
	firstSec, gapSec float64
}

// bornAt returns flow i's birth time in seconds, nondecreasing in i. It is
// indexed arithmetic, not a running sum, so it is exact for every i alike.
func (s *Schedule) bornAt(i int) float64 { return s.firstSec + float64(i)*s.gapSec }

// ScheduleInto pre-generates the flow schedule for cfg covering simulated
// time [0, horizonSec] into dst's arena (reused when capacity suffices; a
// nil dst allocates a fresh Schedule) and returns it. The synthesis is
// deterministic under cfg.Seed and independent of horizon-irrelevant state:
// regenerating with the same config and horizon yields a byte-identical
// arena. A config it rejects leaves dst as it was.
//
// LongLived configs produce cfg.Flows immortal flows born at 0 — the same
// tuples, in the same order, as New(cfg) pre-draws. ShortLived configs
// produce arrivals at cfg.NewFlowsSec starting one lifetime before 0, so
// the live window already holds the steady-state population
// (NewFlowsSec × LifeSec flows) when the simulation starts.
func ScheduleInto(dst *Schedule, cfg Config, horizonSec float64) (*Schedule, error) {
	cfg = cfg.withDefaults()
	sp, err := parseSpace(cfg)
	if err != nil {
		return nil, err
	}
	if err := cfg.check(); err != nil {
		return nil, err
	}
	// n flows, born gap apart from first.
	var n int
	var life, first, gap float64
	if cfg.Mode == LongLived {
		n = cfg.Flows
	} else {
		life, first, gap = cfg.LifeSec, -cfg.LifeSec, 1/float64(cfg.NewFlowsSec)
		// Every birth up to the horizon, counted on the birth times the
		// replay will compare against (bornAt's expression).
		for first+float64(n)*gap <= horizonSec {
			n++
		}
	}
	if dst == nil {
		dst = &Schedule{}
	}
	dst.LifeSec, dst.firstSec, dst.gapSec = life, first, gap
	if cap(dst.Tuples) < n {
		dst.Tuples = make([]packet.FiveTuple, n)
	}
	dst.Tuples = dst.Tuples[:n]

	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	var redund [64]byte
	rng.Read(redund[:]) // mirror the generator's redundant-chunk draw
	for i := range dst.Tuples {
		dst.Tuples[i] = synthTuple(rng, sp, &cfg)
	}
	return dst, nil
}

// ScheduleGen replays a Schedule as a packet source, mirroring Generator's
// NextInto: each packet picks a uniformly random live flow and fills the same
// frame layout through the same payload machinery. The live-flow window
// advances incrementally — O(1) amortized per packet, no retirement scan —
// and retirement order equals birth order by construction.
type ScheduleGen struct {
	g          *Generator
	s          *Schedule
	head, tail int
}

// NewScheduled builds a replay generator over s. The cfg must be the one
// the schedule was generated from (payload shape, frame size and seed come
// from it). The live window is positioned at t=0.
func NewScheduled(cfg Config, s *Schedule) (*ScheduleGen, error) {
	cfg = cfg.withDefaults()
	sp, err := parseSpace(cfg)
	if err != nil {
		return nil, err
	}
	g := &Generator{}
	g.reset(cfg, sp) // the emission engine, no flows drawn
	sg := &ScheduleGen{g: g, s: s}
	sg.advance(0)
	return sg, nil
}

// advance slides the live window forward to nowSec. Time never goes
// backwards in a simulation run, so head and tail only grow.
func (sg *ScheduleGen) advance(nowSec float64) {
	s := sg.s
	for sg.tail < len(s.Tuples) && s.bornAt(sg.tail) <= nowSec {
		sg.tail++
	}
	if s.LifeSec <= 0 {
		return
	}
	for sg.head < sg.tail && s.bornAt(sg.head)+s.LifeSec <= nowSec {
		sg.head++
	}
}

// pick selects the flow for the next packet: uniform over the live window,
// falling back to the most recently born flow if the window is empty (time
// past the schedule horizon, or before the first birth).
func (sg *ScheduleGen) pick(nowSec float64) packet.FiveTuple {
	sg.advance(nowSec)
	live := sg.tail - sg.head
	if live <= 0 {
		if sg.tail == 0 {
			return sg.s.Tuples[0]
		}
		return sg.s.Tuples[sg.tail-1]
	}
	return sg.s.Tuples[sg.head+sg.g.rng.Intn(live)]
}

// NextInto produces the next frame at simulated time nowSec into buf,
// with the same reuse and NSH-headroom contract as Generator.NextInto.
func (sg *ScheduleGen) NextInto(buf []byte, nowSec float64) []byte {
	return sg.g.emitInto(buf, sg.pick(nowSec), true)
}

// HeadersInto is NextInto without writing the payload bytes, under
// Generator.HeadersInto's contract.
func (sg *ScheduleGen) HeadersInto(buf []byte, nowSec float64) []byte {
	return sg.g.emitInto(buf, sg.pick(nowSec), false)
}
