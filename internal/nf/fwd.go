package nf

import (
	"lemur/internal/bpf"
	"lemur/internal/packet"
)

// ipv4Fwd is longest-prefix-match IPv4 forwarding: it selects the egress
// port and rewrites the destination MAC. Table 3 artificially limits it to
// P4-only for the evaluation; the registry keeps the full implementation set
// and the experiments package applies the evaluation restriction.
type ipv4Fwd struct {
	base
	// tables[b] maps network-address -> entry for prefix length b; lens
	// lists the lengths that hold a route, longest first, so a lookup
	// visits only those.
	tables [33]map[uint32]fwdEntry
	lens   []int
	defalt *fwdEntry
}

type fwdEntry struct {
	port    int
	nextHop packet.MAC
}

// newIPv4Fwd builds the forwarder. Params: "default_port" installs a
// catch-all route (default 1).
func newIPv4Fwd(name string, params Params) (NF, error) {
	f := &ipv4Fwd{base: base{name: name, class: "IPv4Fwd"}}
	if dp := params.int("default_port", 1); dp >= 0 {
		f.defalt = &fwdEntry{port: dp, nextHop: packet.MAC{0xff, 0, 0, 0, 0, byte(dp)}}
	}
	return f, nil
}

// Process performs LPM lookup, longest prefix first.
func (f *ipv4Fwd) Process(p *packet.Packet, _ *Env) {
	if !p.HasIPv4 {
		p.Drop = true
		return
	}
	dst := p.IP.Dst.Uint32()
	for _, bits := range f.lens {
		if e, ok := f.tables[bits][dst&bpf.MaskBits(bits)]; ok {
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

func (f *ipv4Fwd) apply(p *packet.Packet, e fwdEntry) {
	p.OutPort = e.port
	p.Eth.Dst = e.nextHop
	if p.IP.TTL > 0 {
		p.IP.TTL--
	} else {
		p.Drop = true
	}
}
