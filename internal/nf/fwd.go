package nf

import (
	"lemur/internal/bpf"
	"lemur/internal/packet"
)

// IPv4Fwd is longest-prefix-match IPv4 forwarding: it selects the egress
// port and rewrites the destination MAC. Table 3 artificially limits it to
// P4-only for the evaluation; the registry keeps the full implementation set
// and the experiments package applies the evaluation restriction.
type IPv4Fwd struct {
	base
	// tables[b] maps network-address -> entry for prefix length b.
	tables [33]map[uint32]fwdEntry
	defalt *fwdEntry
}

type fwdEntry struct {
	port    int
	nextHop packet.MAC
}

// NewIPv4Fwd builds the forwarder. Params: "default_port" installs a
// catch-all route (default 1).
func NewIPv4Fwd(name string, params Params) (NF, error) {
	f := &IPv4Fwd{base: base{name: name, class: "IPv4Fwd"}}
	if dp := params.Int("default_port", 1); dp >= 0 {
		f.defalt = &fwdEntry{port: dp, nextHop: packet.MAC{0xff, 0, 0, 0, 0, byte(dp)}}
	}
	return f, nil
}

// Process performs LPM lookup, longest prefix first.
func (f *IPv4Fwd) Process(p *packet.Packet, _ *Env) {
	if !p.HasIPv4 {
		p.Drop = true
		return
	}
	dst := p.IP.Dst.Uint32()
	for bits := 32; bits >= 0; bits-- {
		t := f.tables[bits]
		if t == nil {
			continue
		}
		if e, ok := t[dst&bpf.MaskBits(bits)]; ok {
			f.apply(p, e)
			return
		}
	}
	if f.defalt != nil {
		f.apply(p, *f.defalt)
		return
	}
	p.Drop = true
}

func (f *IPv4Fwd) apply(p *packet.Packet, e fwdEntry) {
	p.OutPort = e.port
	p.Eth.Dst = e.nextHop
	if p.IP.TTL > 0 {
		p.IP.TTL--
	} else {
		p.Drop = true
	}
}
