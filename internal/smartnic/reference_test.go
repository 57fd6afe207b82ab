package smartnic

import (
	"fmt"
	"slices"

	"lemur/internal/nf"
	"lemur/internal/nsh"
	"lemur/internal/packet"
)

// processCopy is the NIC hop under the copying contract — the input is never
// mutated and the output is a fresh buffer — walked apart from
// ProcessFrameInPlace: decap into a private copy, run the XDP program and
// the NFs on their own decode, re-encap into a buffer of its own (a clipped
// slice, so nsh.EncapInPlace allocates). The in-place tests hold the
// production hop to it byte for byte.
func processCopy(n *NIC, frame []byte, env *nf.Env) ([]byte, error) {
	inner, spi, si, err := nsh.DecapInPlace(append([]byte(nil), frame...))
	if err != nil {
		return nil, err
	}
	pp := n.entries[uint64(spi)<<8|uint64(si)]
	if pp == nil {
		return nil, errNoProgram
	}
	if action, err := run(pp.Prog, inner); err != nil || action == xdpDrop {
		return nil, err
	}
	var p packet.Packet
	if err := p.Decode(inner); err != nil {
		return nil, err
	}
	for _, fn := range pp.NFs {
		if fn.Process(&p, env); p.Drop {
			return nil, nil
		}
	}
	p.SyncHeaders()
	if si < pp.AdvanceSI {
		return nil, fmt.Errorf("SI underflow (si=%d advance=%d)", si, pp.AdvanceSI)
	}
	return nsh.EncapInPlace(slices.Clip(p.Data), spi, si-pp.AdvanceSI)
}
