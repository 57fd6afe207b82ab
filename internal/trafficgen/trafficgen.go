// Package trafficgen synthesizes the traffic the paper's testbed generator
// produced: per-chain traffic aggregates with either long-lived flows (30-50
// uniform flows) or short-lived churn (10,000 new flows/sec, 1 s lifetime),
// the two mixes footnote 6 uses to exercise worst-case NF behaviour.
//
// Two packet sources share one emission engine: the incremental Generator
// (flows synthesized as simulated time advances) and the arena-backed
// ScheduleGen (schedule.go — the whole flow population pre-generated, for
// million-flow runs).
package trafficgen

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"

	"lemur/internal/bpf"
	"lemur/internal/packet"
)

// DefaultFrameBytes is the frame size used throughout the reproduction:
// 1500 B payload-bearing frame plus 30 B of Ethernet+NSH overhead, matching
// the §5.2 extreme-config arithmetic (1.7e9/463 cycles * 1530*8 bits ≈ 44.9
// Gbps).
const DefaultFrameBytes = 1530

// Mode selects the flow-lifetime mix.
type Mode int

// Traffic modes from the paper's footnote 6.
const (
	// LongLived: 30-50 uniformly distributed long-lived flows, for NFs that
	// perform worst with steady flows.
	LongLived Mode = iota
	// ShortLived: high flow churn (10,000 new flows/sec, ~1 s lifetimes),
	// for NFs with per-flow state setup costs.
	ShortLived
)

// Config describes one traffic aggregate.
type Config struct {
	Mode        Mode
	SrcCIDR     string  // source prefix of the aggregate (default 10.0.0.0/8)
	DstCIDR     string  // destination prefix (default 172.16.0.0/12)
	DstPort     uint16  // 0 = random per flow
	Proto       uint8   // default UDP
	FrameBytes  int     // default DefaultFrameBytes
	Flows       int     // LongLived: flow count (default 40)
	NewFlowsSec int     // ShortLived: flow arrival rate (default 10000)
	LifeSec     float64 // ShortLived: flow lifetime in seconds (default 1)
	Redundancy  float64 // fraction of payload chunks repeated (Dedup); 0 = random
	HTTPShare   float64 // fraction of packets carrying an HTTP head (UrlFilter)
	Seed        int64
}

// withDefaults returns cfg with the package defaults applied.
func (cfg Config) withDefaults() Config {
	if cfg.SrcCIDR == "" {
		cfg.SrcCIDR = "10.0.0.0/8"
	}
	if cfg.DstCIDR == "" {
		cfg.DstCIDR = "172.16.0.0/12"
	}
	if cfg.Proto == 0 {
		cfg.Proto = packet.IPProtoUDP
	}
	if cfg.FrameBytes == 0 {
		cfg.FrameBytes = DefaultFrameBytes
	}
	if cfg.Flows == 0 {
		cfg.Flows = 40
	}
	if cfg.NewFlowsSec == 0 {
		cfg.NewFlowsSec = 10000
	}
	if cfg.LifeSec <= 0 {
		cfg.LifeSec = 1.0
	}
	return cfg
}

// check rejects a config neither packet source can run: a negative flow
// count would leave no flow to draw from, a negative arrival rate births
// that never come, a steady-state churn pool (NewFlowsSec × LifeSec,
// truncated as the generator sizes it) below one flow no live flow to pick,
// and an unknown mode none of these. cfg must already have defaults applied.
func (cfg *Config) check() error {
	switch cfg.Mode {
	case LongLived:
		if cfg.Flows < 0 {
			return fmt.Errorf("trafficgen: negative flow count %d", cfg.Flows)
		}
	case ShortLived:
		if cfg.NewFlowsSec < 0 {
			return fmt.Errorf("trafficgen: negative flow arrival rate %d/s", cfg.NewFlowsSec)
		}
		if int(float64(cfg.NewFlowsSec)*cfg.LifeSec) < 1 {
			return fmt.Errorf("trafficgen: churn pool of %d/s × %gs is below one flow", cfg.NewFlowsSec, cfg.LifeSec)
		}
	default:
		return fmt.Errorf("trafficgen: unknown mode %d", cfg.Mode)
	}
	return nil
}

// addrSpace is the parsed CIDR pair tuples are drawn from.
type addrSpace struct {
	srcBase uint32
	srcMask uint32
	dstBase uint32
	dstMask uint32
}

func parseSpace(cfg Config) (addrSpace, error) {
	var sp addrSpace
	var bits int
	var err error
	sp.srcBase, bits, err = bpf.ParseCIDR(cfg.SrcCIDR)
	if err != nil {
		return sp, fmt.Errorf("trafficgen: src: %w", err)
	}
	sp.srcMask = bpf.MaskBits(bits)
	sp.dstBase, bits, err = bpf.ParseCIDR(cfg.DstCIDR)
	if err != nil {
		return sp, fmt.Errorf("trafficgen: dst: %w", err)
	}
	sp.dstMask = bpf.MaskBits(bits)
	return sp, nil
}

// synthTuple draws one flow five-tuple. The rng draw order (src, dst,
// optional dst port, src port) is shared by the incremental generator and
// the schedule pre-generator, so both synthesize identical flow sequences
// from the same seed.
func synthTuple(rng *rand.Rand, sp addrSpace, cfg *Config) packet.FiveTuple {
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

// Generator produces packets for one aggregate, synthesizing flows
// incrementally as simulated time advances.
type Generator struct {
	cfg    Config
	rng    *rand.Rand
	sp     addrSpace
	flows  []packet.FiveTuple
	born   []float64 // ShortLived: flow birth time
	head   int       // ShortLived: index of the oldest live flow
	redund []byte    // shared redundant chunk
}

// reset points g at cfg and sp with no flows drawn: its rng is seeded in
// place (the stream a fresh rand.NewSource(cfg.Seed+1) yields), the
// redundant chunk redrawn, and the flow arrays kept for their capacity.
func (g *Generator) reset(cfg Config, sp addrSpace) {
	g.cfg, g.sp = cfg, sp
	if g.rng == nil {
		g.rng = rand.New(rand.NewSource(cfg.Seed + 1))
	} else {
		g.rng.Seed(cfg.Seed + 1)
	}
	if g.redund == nil {
		g.redund = make([]byte, 64)
	}
	g.rng.Read(g.redund)
	g.flows, g.born = g.flows[:0], g.born[:0]
	g.head = 0
}

// New builds a generator, applying defaults. It rejects the configs
// ScheduleInto rejects.
func New(cfg Config) (*Generator, error) { return NewInto(nil, cfg) }

// NewInto builds the generator New(cfg) would into dst (its rng, redundant
// chunk and flow arrays reused; a nil dst allocates a fresh Generator) and
// returns it: the frames it emits equal New(cfg)'s byte for byte. A config
// it rejects leaves dst as it was.
func NewInto(dst *Generator, cfg Config) (*Generator, error) {
	cfg = cfg.withDefaults()
	sp, err := parseSpace(cfg)
	if err != nil {
		return nil, err
	}
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if dst == nil {
		dst = &Generator{}
	}
	dst.reset(cfg, sp)
	if cfg.Mode == LongLived {
		for i := 0; i < cfg.Flows; i++ {
			dst.flows = append(dst.flows, dst.newTuple())
		}
	}
	return dst, nil
}

func (g *Generator) newTuple() packet.FiveTuple {
	return synthTuple(g.rng, g.sp, &g.cfg)
}

// NextInto produces the next frame at simulated time nowSec, serializing it
// into buf (reused when capacity suffices, extended otherwise) and returning
// the frame slice. The frame's bytes and the rng draws do not depend on buf.
// Freshly allocated buffers reserve packet.TailRoom spare capacity so an NSH
// encap and a VLAN push later in the pipeline can grow the frame in place.
func (g *Generator) NextInto(buf []byte, nowSec float64) []byte {
	return g.emitInto(buf, g.nextTuple(nowSec), true)
}

// HeadersInto is NextInto for a frame whose payload no NF reads: the same
// length, the same header bytes and the same rng draws, so every later
// frame of g is NextInto's; but the payload bytes are left as buf held them
// (zero in a fresh buffer). Calls to the two may interleave freely.
func (g *Generator) HeadersInto(buf []byte, nowSec float64) []byte {
	return g.emitInto(buf, g.nextTuple(nowSec), false)
}

// emitInto serializes one frame for tu into buf — the emission engine both
// packet sources share. With payload false it writes the headers only and
// makes the payload's rng draws without writing their bytes.
func (g *Generator) emitInto(buf []byte, tu packet.FiveTuple, payload bool) []byte {
	payLen := g.cfg.FrameBytes - packet.EthernetLen - packet.NSHLen - packet.IPv4Len - packet.UDPLen
	if g.cfg.Proto == packet.IPProtoTCP {
		payLen -= packet.TCPLen - packet.UDPLen
	}
	if payLen < 0 {
		payLen = 0
	}

	b := packet.Builder{
		EthSrc: packet.MAC{0x02, 0, 0, 0, 0, 1},
		EthDst: packet.MAC{0x02, 0, 0, 0, 0, 2},
		Src:    tu.Src, Dst: tu.Dst,
		Proto:   tu.Proto,
		SrcPort: tu.SrcPort, DstPort: tu.DstPort,
		PayloadLen:  payLen,
		KeepPayload: !payload,
	}
	if buf == nil {
		// One allocation sized for the un-encapped frame plus tail room.
		total := packet.EthernetLen + packet.IPv4Len + packet.UDPLen + payLen
		if g.cfg.Proto == packet.IPProtoTCP {
			total += packet.TCPLen - packet.UDPLen
		}
		buf = make([]byte, 0, total+packet.TailRoom)
	}
	frame := b.AppendTo(buf[:0])
	g.fillPayload(frame[len(frame)-payLen:], payload)
	return frame
}

// nextTuple picks the flow for the next packet, advancing churn state in
// ShortLived mode.
func (g *Generator) nextTuple(nowSec float64) packet.FiveTuple {
	if g.cfg.Mode == ShortLived {
		// Retire expired flows and admit new ones at the configured arrival
		// rate; steady-state population ≈ NewFlowsSec × LifeSec. Lifetimes
		// are constant, so flows expire in birth order: retirement pops a
		// prefix off the live window instead of rescanning the whole pool
		// (the pre-fix code rebuilt flows/born on every packet — O(n) per
		// emission, which is what capped FlowCount at a few thousand).
		for g.head < len(g.flows) && nowSec-g.born[g.head] >= g.cfg.LifeSec {
			g.head++
		}
		if g.head > 1024 && g.head*2 > len(g.flows) {
			// Compact the expired prefix so the arrays don't grow without
			// bound over a long run.
			n := copy(g.flows, g.flows[g.head:])
			g.flows = g.flows[:n]
			g.born = append(g.born[:0], g.born[g.head:]...)
			g.head = 0
		}
		target := int(float64(g.cfg.NewFlowsSec) * g.cfg.LifeSec) // steady-state pool
		if len(g.flows)-g.head < target {
			g.flows = append(g.flows, g.newTuple())
			g.born = append(g.born, nowSec)
		}
	}
	live := g.flows[g.head:]
	return live[g.rng.Intn(len(live))]
}

// fillPayload writes p: an HTTP head with probability HTTPShare, then per
// 64-B chunk the redundant chunk (probability Redundancy) or a fresh random
// one. With write false it makes exactly the same rng draws and writes
// nothing, which keeps every later draw of the stream where it was.
func (g *Generator) fillPayload(p []byte, write bool) {
	if g.cfg.HTTPShare > 0 && g.rng.Float64() < g.cfg.HTTPShare {
		var hb [64]byte
		head := append(hb[:0], "GET /path/item HTTP/1.1\r\nHost: site-"...)
		head = strconv.AppendInt(head, int64(g.rng.Intn(1000)), 10)
		head = append(head, ".example\r\n\r\n"...)
		if write {
			copy(p, head)
		}
		p = p[min(len(head), len(p)):]
	}
	for off := 0; off < len(p); off += 64 {
		end := min(off+64, len(p))
		if g.cfg.Redundancy > 0 && g.rng.Float64() < g.cfg.Redundancy {
			if write {
				copy(p[off:end], g.redund)
			}
		} else if seed := g.rng.Uint64(); write {
			fillRandom(p[off:end], seed)
		}
	}
}

// splitmixGamma is the splitmix64 stream increment.
const splitmixGamma = 0x9e3779b97f4a7c15

// splitmix is the splitmix64 output function of state s.
func splitmix(s uint64) uint64 {
	s = (s ^ (s >> 30)) * 0xbf58476d1ce4e5b9
	s = (s ^ (s >> 27)) * 0x94d049bb133111eb
	return s ^ (s >> 31)
}

// fillRandom expands one rng draw into a chunk of pseudo-random bytes via a
// splitmix64 stream. One generator draw per chunk instead of rng.Read's one
// per 8 bytes keeps payload synthesis off the simulator's profile while the
// bytes stay unique per chunk (Dedup fingerprints behave like random data).
// The main loop writes four words per pass over a sliced-down p, so the
// compiler proves every store in bounds once per pass.
func fillRandom(p []byte, seed uint64) {
	s := seed
	for len(p) >= 32 {
		s1 := s + splitmixGamma
		s2 := s1 + splitmixGamma
		s3 := s2 + splitmixGamma
		s = s3 + splitmixGamma
		binary.LittleEndian.PutUint64(p[0:8], splitmix(s1))
		binary.LittleEndian.PutUint64(p[8:16], splitmix(s2))
		binary.LittleEndian.PutUint64(p[16:24], splitmix(s3))
		binary.LittleEndian.PutUint64(p[24:32], splitmix(s))
		p = p[32:]
	}
	for len(p) >= 8 {
		s += splitmixGamma
		binary.LittleEndian.PutUint64(p, splitmix(s))
		p = p[8:]
	}
	if len(p) > 0 {
		z := splitmix(s + splitmixGamma)
		for i := range p {
			p[i] = byte(z)
			z >>= 8
		}
	}
}
