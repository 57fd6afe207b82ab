package nf

import (
	"fmt"

	"lemur/internal/bpf"
	"lemur/internal/obs"
	"lemur/internal/packet"
)

// NAT implements carrier-grade source NAT: internal (addr, port) pairs are
// mapped to (external addr, allocated port), and the reverse mapping
// translates return traffic. The port space is a single shared allocator,
// which is why the paper does not replicate NAT across cores (partitioning
// the port space is called out as future work in §3.2).
//
// The forward table is a sharded flowTable keyed by the packed (addr, port)
// pair; the reverse table is a dense array indexed by external port minus
// portBase, since the allocator only ever hands out ports from that window —
// and in order, so the array is grown to the highest port handed out rather
// than built for the whole window (96 KB at the default cap, of which a
// short run touches a few entries); a port beyond it has never been mapped.
// When the port space (or the "entries" cap) is exhausted, new flows are
// dropped and counted — the table never evicts, because silently breaking an
// established translation would corrupt return traffic.
type NAT struct {
	base
	natCfg
	nextPort uint16
	out      *flowTable[natKey, uint16] // internal (ip,port) -> external port
	in       []natSlot                  // external port - portBase -> internal (ip,port)
	so       stateObs
	exhC     *obs.Counter

	// Exhausted counts packets dropped for lack of a free port/entry.
	Exhausted uint64
}

type natKey struct {
	addr packet.IPv4Addr
	port uint16
}

// natHash packs the key into 48 bits and finalizes with mix64 so the shard
// and slot bits are well distributed.
func natHash(k natKey) uint64 {
	return mix64(uint64(k.addr.Uint32())<<16 | uint64(k.port))
}

// natSlot is one dense reverse-table entry.
type natSlot struct {
	key  natKey
	used bool
}

// natCfg is the parsed NAT parameter set, shared by the sharded and
// reference implementations so both clamp and translate identically.
type natCfg struct {
	external packet.IPv4Addr
	inPrefix uint32 // traffic from this prefix is "internal" (outbound)
	inMask   uint32
	portBase uint16
	maxEntry int
}

// parseNATCfg applies the NAT defaults and clamps the entry cap to the
// available port window [portBase, 65536). Before the clamp, entry counts
// above 45536 overflowed the uint16 port arithmetic and collapsed the
// allocator to a single reusable port.
func parseNATCfg(name string, params Params) (natCfg, error) {
	c := natCfg{
		external: packet.IPv4Addr{203, 0, 113, 1},
		portBase: 20000,
		maxEntry: params.int("entries", 12000),
	}
	if s := params.str("external", ""); s != "" {
		addr, bits, err := bpf.ParseCIDR(s + "/32")
		if err != nil || bits != 32 {
			return c, fmt.Errorf("nf: NAT %s: bad external %q", name, s)
		}
		c.external = packet.AddrFromUint32(addr)
	}
	cidr := params.str("internal", "10.0.0.0/8")
	addr, bits, err := bpf.ParseCIDR(cidr)
	if err != nil {
		return c, fmt.Errorf("nf: NAT %s: %w", name, err)
	}
	c.inPrefix, c.inMask = addr, bpf.MaskBits(bits)
	if maxPorts := 65536 - int(c.portBase); c.maxEntry > maxPorts {
		c.maxEntry = maxPorts
	}
	if c.maxEntry < 0 {
		c.maxEntry = 0
	}
	return c, nil
}

// newNAT builds the translator. Params: "external" (IP string, default
// 203.0.113.1), "internal" (CIDR treated as inside, default 10.0.0.0/8),
// "entries" (mapping capacity, default 12000 — the Table 4 profile point;
// clamped to the 45536-port window above portBase 20000).
func newNAT(name string, params Params) (NF, error) {
	cfg, err := parseNATCfg(name, params)
	if err != nil {
		return nil, err
	}
	n := &NAT{
		base:   base{name: name, class: "NAT"},
		natCfg: cfg,
		out:    newFlowTable[natKey, uint16](0, false, natHash),
		so:     newStateObs("NAT", name),
		exhC:   natExhaustedCounter(name),
	}
	n.nextPort = n.portBase
	return n, nil
}

// natExhaustedCounter is the port/entry exhaustion drop counter, shared by
// both table backends so metric snapshots match.
func natExhaustedCounter(name string) *obs.Counter {
	return obs.C("lemur_nf_nat_exhausted_total", obs.L("nf", name))
}

// Process translates outbound packets (src in the internal prefix) and
// reverse-translates inbound packets addressed to the external IP.
func (n *NAT) Process(p *packet.Packet, _ *Env) {
	if !p.HasIPv4 || (!p.HasTCP && !p.HasUDP) {
		return
	}
	srcPort, dstPort := l4Ports(p)
	switch {
	case p.IP.Src.Uint32()&n.inMask == n.inPrefix&n.inMask:
		key := natKey{addr: p.IP.Src, port: srcPort}
		var ext uint16
		if pe := n.out.get(key); pe != nil {
			ext = *pe
		} else {
			var ok bool
			ext, ok = n.allocate(key)
			if !ok {
				p.Drop = true
				n.Exhausted++
				n.exhC.Inc()
				return
			}
		}
		p.IP.Src = n.external
		setL4SrcPort(p, ext)
		p.SyncHeaders()
	case p.IP.Dst == n.external:
		idx := int(dstPort) - int(n.portBase)
		if idx < 0 || idx >= len(n.in) || !n.in[idx].used {
			p.Drop = true
			return
		}
		key := n.in[idx].key
		p.IP.Dst = key.addr
		setL4DstPort(p, key.port)
		p.SyncHeaders()
	}
}

func (n *NAT) allocate(key natKey) (uint16, bool) {
	if n.out.count() >= n.maxEntry {
		return 0, false
	}
	// Linear scan from nextPort with wraparound; the port range is
	// [portBase, portBase+maxEntry). int arithmetic — portBase+maxEntry may
	// be exactly 65536, which a uint16 cannot hold.
	limit := int(n.portBase) + n.maxEntry
	for i := 0; i < n.maxEntry; i++ {
		cand := n.nextPort
		np := int(n.nextPort) + 1
		if np >= limit {
			np = int(n.portBase)
		}
		n.nextPort = uint16(np)
		idx := int(cand) - int(n.portBase)
		if idx < len(n.in) && n.in[idx].used {
			continue
		}
		if idx >= len(n.in) {
			// Doubling, to the cap: a table that fills has then allocated
			// at most twice the array it used to be built with.
			grown := make([]natSlot, min(max(2*len(n.in), idx+1, 64), n.maxEntry))
			copy(grown, n.in)
			n.in = grown
		}
		*n.out.insert(key) = cand
		n.in[idx] = natSlot{key: key, used: true}
		return cand, true
	}
	return 0, false
}

// Entries returns the number of active translations.
func (n *NAT) Entries() int { return n.out.count() }

func l4Ports(p *packet.Packet) (src, dst uint16) {
	if p.HasTCP {
		return p.TCP.SrcPort, p.TCP.DstPort
	}
	return p.UDP.SrcPort, p.UDP.DstPort
}

func setL4SrcPort(p *packet.Packet, port uint16) {
	if p.HasTCP {
		p.TCP.SrcPort = port
	} else {
		p.UDP.SrcPort = port
	}
}

func setL4DstPort(p *packet.Packet, port uint16) {
	if p.HasTCP {
		p.TCP.DstPort = port
	} else {
		p.UDP.DstPort = port
	}
}
