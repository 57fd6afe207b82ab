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
		if gRef.Emitted() != gFast.Emitted() {
			t.Fatalf("config %d: emitted counts diverge", ci)
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
