package trafficgen

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"lemur/internal/packet"
)

// TestStreamMatchesMathRand: for every seed (zero, negative, 0 and 2³¹−1,
// which math/rand maps to its 89482311 alias, and the alias itself), the
// stream's first read equals a fresh Rand's Read at lengths around the
// 7-byte draw, and a mixed run of draws and skips equals the same calls on
// math/rand, where skip(k) is k Uint64 calls. The Intn arguments cover
// powers of two, the generator's own n, and n that reject about half their
// draws, on both the 31-bit and the 63-bit path.
func TestStreamMatchesMathRand(t *testing.T) {
	intns := []int{1, 2, 3, 1000, 60000, 1 << 20, 1<<30 + 1, 1<<31 - 1, 1 << 40, 1<<62 + 1}
	skips := []int{0, 1, 23, 273, 274, 1000}
	for _, seed := range []int64{0, -1, -5, 1, 42, 1<<31 - 1, 1 << 40, -1 << 62, 89482311} {
		for _, n := range []int{0, 1, 6, 7, 8, 13, 14, 15, 64} {
			r := rand.New(rand.NewSource(seed))
			var s stream
			s.seed(seed)
			want := make([]byte, n)
			r.Read(want)
			got := make([]byte, n)
			s.read(got)
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d: read(%d B) = %x, Rand.Read %x", seed, n, got, want)
			}
			if a, b := s.uint64(), r.Uint64(); a != b {
				t.Fatalf("seed %d: draw after read(%d B) = %#x, math/rand %#x", seed, n, a, b)
			}
		}

		r := rand.New(rand.NewSource(seed))
		var s stream
		s.seed(seed)
		ops := rand.New(rand.NewSource(seed ^ 0x5eed))
		for i := 0; i < 20000; i++ {
			var got, want any
			var op string
			switch k := ops.Intn(5); k {
			case 0:
				op, got, want = "uint64", s.uint64(), r.Uint64()
			case 1:
				op, got, want = "uint32", s.uint32(), r.Uint32()
			case 2:
				n := intns[ops.Intn(len(intns))]
				op, got, want = fmt.Sprintf("intn(%d)", n), s.intn(n), r.Intn(n)
			case 3:
				op, got, want = "float64", s.float64(), r.Float64()
			case 4:
				n := skips[ops.Intn(len(skips))]
				op = fmt.Sprintf("skip(%d)", n)
				s.skip(n)
				for j := 0; j < n; j++ {
					r.Uint64()
				}
				got, want = s.uint64(), r.Uint64()
			}
			if got != want {
				t.Fatalf("seed %d: op %d %s = %v, math/rand %v", seed, i, op, got, want)
			}
		}
	}
}

// randTuple is synthTuple drawing from math/rand.
func randTuple(rng *rand.Rand, sp addrSpace, cfg *Config) packet.FiveTuple {
	src := sp.srcBase&sp.srcMask | rng.Uint32()&^sp.srcMask
	dst := sp.dstBase&sp.dstMask | rng.Uint32()&^sp.dstMask
	dport := cfg.DstPort
	if dport == 0 {
		dport = uint16(1024 + rng.Intn(60000))
	}
	return packet.FiveTuple{
		Src:     packet.AddrFromUint32(src),
		Dst:     packet.AddrFromUint32(dst),
		SrcPort: uint16(1024 + rng.Intn(60000)),
		DstPort: dport,
		Proto:   cfg.Proto,
	}
}

// randGen is the Generator as it was before it owned its stream: every
// draw from a *rand.Rand seeded with Seed+1, every payload chunk drawn and
// written, and ShortLived retirement by the original rebuild of the whole
// flow/born arrays on every emission. It is the oracle for the frames and
// for the head-advance retirement.
type randGen struct {
	cfg    Config
	rng    *rand.Rand
	sp     addrSpace
	redund [64]byte
	flows  []packet.FiveTuple
	born   []float64
}

func newRandGen(t *testing.T, cfg Config) *randGen {
	t.Helper()
	cfg = cfg.withDefaults()
	sp, err := parseSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := &randGen{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed + 1)), sp: sp}
	g.rng.Read(g.redund[:])
	if cfg.Mode == LongLived {
		for i := 0; i < cfg.Flows; i++ {
			g.flows = append(g.flows, randTuple(g.rng, sp, &cfg))
		}
	}
	return g
}

func (g *randGen) nextTuple(nowSec float64) packet.FiveTuple {
	if g.cfg.Mode == ShortLived {
		live := g.flows[:0]
		liveBorn := g.born[:0]
		for i, f := range g.flows {
			if nowSec-g.born[i] < g.cfg.LifeSec {
				live = append(live, f)
				liveBorn = append(liveBorn, g.born[i])
			}
		}
		g.flows, g.born = live, liveBorn
		if len(g.flows) < int(float64(g.cfg.NewFlowsSec)*g.cfg.LifeSec) {
			g.flows = append(g.flows, randTuple(g.rng, g.sp, &g.cfg))
			g.born = append(g.born, nowSec)
		}
	}
	return g.flows[g.rng.Intn(len(g.flows))]
}

// next is NextInto(nil, nowSec), headers by packet.Builder and the payload
// written chunk by chunk.
func (g *randGen) next(nowSec float64) []byte {
	tu := g.nextTuple(nowSec)
	l4 := packet.UDPLen
	if g.cfg.Proto == packet.IPProtoTCP {
		l4 = packet.TCPLen
	}
	payLen := max(0, g.cfg.FrameBytes-packet.EthernetLen-packet.NSHLen-packet.IPv4Len-l4)
	frame := packet.Builder{
		EthSrc: packet.MAC{0x02, 0, 0, 0, 0, 1},
		EthDst: packet.MAC{0x02, 0, 0, 0, 0, 2},
		Src:    tu.Src, Dst: tu.Dst,
		Proto:   tu.Proto,
		SrcPort: tu.SrcPort, DstPort: tu.DstPort,
		PayloadLen: payLen,
	}.AppendTo(nil)
	p := frame[len(frame)-payLen:]
	if g.cfg.HTTPShare > 0 && g.rng.Float64() < g.cfg.HTTPShare {
		p = p[copy(p, fmt.Sprintf("GET /path/item HTTP/1.1\r\nHost: site-%d.example\r\n\r\n", g.rng.Intn(1000))):]
	}
	for len(p) > 0 {
		chunk := p[:min(64, len(p))]
		if g.cfg.Redundancy > 0 && g.rng.Float64() < g.cfg.Redundancy {
			copy(chunk, g.redund[:])
		} else {
			fillRandom(chunk, g.rng.Uint64())
		}
		p = p[len(chunk):]
	}
	return frame
}

// TestGeneratorMatchesMathRand: a Generator emits randGen's frames byte for
// byte, and a headers-only frame among them (two in three, skipping the
// payload draws) has its length and header bytes and leaves every later
// frame as it was.
func TestGeneratorMatchesMathRand(t *testing.T) {
	pick := rand.New(rand.NewSource(5))
	for ci, cfg := range payloadConfigs() {
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRandGen(t, cfg)
		var buf []byte
		for i := 0; i < 600; i++ {
			now := float64(i) * 1e-4
			want := ref.next(now)
			if pick.Intn(3) > 0 {
				buf = g.HeadersInto(buf, now)
				hdr := len(want) - payLenOf(want)
				if len(buf) != len(want) || !bytes.Equal(buf[:hdr], want[:hdr]) {
					t.Fatalf("config %d: headers-only frame %d differs from the math/rand generator's", ci, i)
				}
				continue
			}
			if buf = g.NextInto(buf, now); !bytes.Equal(buf, want) {
				t.Fatalf("config %d: frame %d differs from the math/rand generator's", ci, i)
			}
		}
	}
}

// BenchmarkSkip23 skips one 1530-B frame's payload draws (23 chunks), on
// the stream and as the 23 math/rand calls it replaces.
func BenchmarkSkip23(b *testing.B) {
	b.Run("stream", func(b *testing.B) {
		var s stream
		s.seed(1)
		for i := 0; i < b.N; i++ {
			s.skip(23)
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			for j := 0; j < 23; j++ {
				r.Uint64()
			}
		}
	})
}
