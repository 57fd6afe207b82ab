package trafficgen

import (
	"bytes"
	"testing"

	"lemur/internal/packet"
)

// next is the allocating emission the tests read packets through: a frame
// in a fresh buffer, decoded.
func next(g interface {
	NextInto(buf []byte, nowSec float64) []byte
}, nowSec float64) *packet.Packet {
	p := &packet.Packet{}
	if err := p.Decode(g.NextInto(nil, nowSec)); err != nil {
		panic("trafficgen: generated undecodable frame: " + err.Error())
	}
	return p
}

// nextIntoConfigs exercises both flow modes plus the payload-shaping knobs
// (redundant chunks for Dedup, HTTP heads for UrlFilter).
func nextIntoConfigs() []Config {
	return []Config{
		{Mode: LongLived, Seed: 11},
		{Mode: ShortLived, Seed: 12, FrameBytes: 512},
		{Mode: LongLived, Seed: 13, Proto: packet.IPProtoTCP, Redundancy: 0.5, HTTPShare: 0.3},
	}
}

// TestNewIntoMatchesNew: one generator rebuilt by NewInto for config after
// config — long-lived and churning flows, redundant chunks and HTTP heads,
// a large flow pool followed by a small one — emits each config's frames
// byte for byte as a fresh New does. A config NewInto rejects leaves the
// generator emitting what it would have.
func TestNewIntoMatchesNew(t *testing.T) {
	cfgs := append(nextIntoConfigs(),
		Config{Mode: ShortLived, Seed: 14, NewFlowsSec: 500, Redundancy: 0.9, HTTPShare: 0.5},
		Config{Mode: LongLived, Seed: 15, Flows: 3, Redundancy: 0.2})
	var reused *Generator
	emit := func(ci int, a, b *Generator, from, to int) {
		t.Helper()
		var buf []byte
		for i := from; i < to; i++ {
			now := float64(i) * 1e-4
			want := next(b, now).Data
			buf = a.NextInto(buf, now)
			if !bytes.Equal(buf, want) {
				t.Fatalf("config %d: frame %d of the reused generator diverges from New's", ci, i)
			}
		}
		if a.FlowCount() != b.FlowCount() {
			t.Fatalf("config %d: flows %d/%d", ci, a.FlowCount(), b.FlowCount())
		}
	}
	for round := 0; round < 2; round++ {
		for ci, cfg := range cfgs {
			g, err := NewInto(reused, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if reused != nil && g != reused {
				t.Fatalf("config %d: NewInto did not return dst", ci)
			}
			reused = g
			fresh, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			emit(ci, reused, fresh, 0, 300)
			for _, bad := range []Config{
				{SrcCIDR: "bogus", Seed: 99},
				{Mode: ShortLived, NewFlowsSec: 1, LifeSec: 0.5, Seed: 99},
			} {
				if g, err := NewInto(reused, bad); err == nil || g != nil {
					t.Fatalf("config %d: NewInto(%+v) = %v, %v; want nil and an error", ci, bad, g, err)
				}
			}
			emit(ci, reused, fresh, 300, 400)
		}
	}
}

// TestNextIntoMatchesNext: two generators with identical configs, one driven
// through next (a fresh buffer per frame) and one through NextInto with a
// recycled buffer, must emit byte-identical frame streams (same rng draw
// order).
func TestNextIntoMatchesNext(t *testing.T) {
	for ci, cfg := range nextIntoConfigs() {
		gRef, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gFast, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf []byte
		for i := 0; i < 500; i++ {
			now := float64(i) * 1e-4
			want := next(gRef, now).Data
			buf = gFast.NextInto(buf[:0], now)
			if !bytes.Equal(buf, want) {
				t.Fatalf("config %d: frame %d diverges (recycled %d bytes, fresh %d bytes)",
					ci, i, len(buf), len(want))
			}
		}
	}
}

// TestNextIntoNilBuffer: a nil destination allocates a frame with NSH
// headroom so the simulator's first encap stays in place.
func TestNextIntoNilBuffer(t *testing.T) {
	g, err := New(Config{Mode: LongLived, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	frame := g.NextInto(nil, 0)
	if cap(frame) < len(frame)+packet.NSHLen {
		t.Fatalf("NextInto(nil) cap %d, want >= len %d + NSH headroom", cap(frame), len(frame))
	}
	var p packet.Packet
	if err := p.Decode(frame); err != nil {
		t.Fatalf("undecodable frame: %v", err)
	}
}

// TestConstructorAllocs pins what building a packet source costs, a cost a
// run pays once per chain and per-packet budgets (the runtime's
// TestSimulateAllocBudget) cancel out. A fresh New, NewScheduled or
// ScheduleInto makes at most the allocations listed: the generator with its
// stream, its flow array, the arena. When the draws came from a *rand.Rand
// they were 13, 6, 7 and 5, its source and Rand two of each; keeping one
// next to the stream adds them back. Rebuilding into a reused value
// allocates nothing.
func TestConstructorAllocs(t *testing.T) {
	long := Config{Mode: LongLived, Seed: 3}
	churn := Config{Mode: ShortLived, Seed: 4, NewFlowsSec: 500}
	sched, err := ScheduleInto(nil, churn, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := New(long)
	replay, _ := NewScheduled(churn, sched)
	for _, c := range []struct {
		name string
		most float64
		f    func()
	}{
		{"New(long-lived)", 2, func() { New(long) }},
		{"New(short-lived)", 1, func() { New(churn) }},
		{"NewScheduled", 1, func() { NewScheduled(churn, sched) }},
		{"ScheduleInto(nil)", 2, func() { ScheduleInto(nil, churn, 0.5) }},
		{"NewInto(reused)", 0, func() { NewInto(gen, long) }},
		{"NewScheduledInto(reused)", 0, func() { NewScheduledInto(replay, churn, sched) }},
		{"ScheduleInto(reused)", 0, func() { ScheduleInto(sched, churn, 0.5) }},
	} {
		if n := testing.AllocsPerRun(20, c.f); n > c.most {
			t.Errorf("%s: %v allocations, want at most %v", c.name, n, c.most)
		}
	}
}
