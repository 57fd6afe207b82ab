package trafficgen

import (
	"testing"

	"lemur/internal/packet"
)

func TestLongLivedFlows(t *testing.T) {
	g, err := New(Config{Mode: LongLived, Flows: 35, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if g.FlowCount() != 35 {
		t.Fatalf("flows = %d, want 35", g.FlowCount())
	}
	seen := map[packet.FiveTuple]bool{}
	for i := 0; i < 500; i++ {
		p := next(g, 0)
		tu, err := p.Tuple()
		if err != nil {
			t.Fatal(err)
		}
		seen[tu] = true
		if tu.Src.Uint32()>>24 != 10 {
			t.Fatalf("src %v outside 10/8", tu.Src)
		}
	}
	if len(seen) != 35 {
		t.Errorf("500 packets covered %d flows, want all 35", len(seen))
	}
}

func TestShortLivedChurn(t *testing.T) {
	g, err := New(Config{Mode: ShortLived, NewFlowsSec: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Drive sim time forward; the pool should grow to ~NewFlowsSec and old
	// flows must expire.
	for i := 0; i < 2000; i++ {
		next(g, float64(i)*0.001) // 2 seconds
	}
	if got := g.FlowCount(); got < 50 || got > 110 {
		t.Errorf("steady-state pool = %d, want around 100", got)
	}
	for i := 0; i < 2000; i++ {
		next(g, 2+float64(i)*0.001)
	}
	// Every live flow (the [head:] window) must be younger than LifeSec at
	// the last emission time.
	last := 2 + 1999*0.001
	for i := g.head; i < len(g.flows); i++ {
		if last-g.born[i] >= 1.0+0.001 {
			t.Errorf("flow %d born %.3f still live at %.3f", i, g.born[i], last)
		}
	}
}

func TestFrameSize(t *testing.T) {
	g, _ := New(Config{Mode: LongLived, Seed: 1})
	p := next(g, 0)
	// Generator reserves NSH headroom: built frame is DefaultFrameBytes-NSHLen
	// before encapsulation.
	if got := len(p.Data); got != DefaultFrameBytes-packet.NSHLen {
		t.Errorf("frame = %d bytes, want %d", got, DefaultFrameBytes-packet.NSHLen)
	}
	gt, _ := New(Config{Mode: LongLived, Proto: packet.IPProtoTCP, Seed: 1})
	pt := next(gt, 0)
	if got := len(pt.Data); got != DefaultFrameBytes-packet.NSHLen {
		t.Errorf("tcp frame = %d bytes, want %d", got, DefaultFrameBytes-packet.NSHLen)
	}
	if !pt.HasTCP {
		t.Error("tcp mode did not produce TCP")
	}
}

func TestRedundantPayloads(t *testing.T) {
	g, _ := New(Config{Mode: LongLived, Redundancy: 1.0, Seed: 5})
	p := next(g, 0)
	pay := p.Payload()
	if len(pay) < 128 {
		t.Fatal("payload too small")
	}
	for i := 0; i < 64; i++ {
		if pay[i] != pay[64+i] {
			t.Fatal("redundancy=1.0 should repeat chunks")
		}
	}
	g2, _ := New(Config{Mode: LongLived, Redundancy: 0, Seed: 5})
	p2 := next(g2, 0)
	pay2 := p2.Payload()
	same := 0
	for i := 0; i < 64; i++ {
		if pay2[i] == pay2[64+i] {
			same++
		}
	}
	if same > 16 {
		t.Errorf("random payload chunks look identical (%d/64 equal bytes)", same)
	}
}

func TestHTTPShare(t *testing.T) {
	g, _ := New(Config{Mode: LongLived, HTTPShare: 1.0, Proto: packet.IPProtoTCP, Seed: 9})
	p := next(g, 0)
	if string(p.Payload()[:4]) != "GET " {
		t.Errorf("payload does not start with HTTP head: %q", p.Payload()[:16])
	}
}

func TestBadCIDRs(t *testing.T) {
	if _, err := New(Config{SrcCIDR: "bogus"}); err == nil {
		t.Error("want error for bad src")
	}
	if _, err := New(Config{DstCIDR: "bogus"}); err == nil {
		t.Error("want error for bad dst")
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := New(Config{Mode: LongLived, Seed: 42})
	b, _ := New(Config{Mode: LongLived, Seed: 42})
	for i := 0; i < 50; i++ {
		pa, pb := next(a, 0), next(b, 0)
		ta, _ := pa.Tuple()
		tb, _ := pb.Tuple()
		if ta != tb {
			t.Fatalf("packet %d diverged: %v vs %v", i, ta, tb)
		}
	}
}
