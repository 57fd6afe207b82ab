package bess

import (
	"fmt"

	"lemur/internal/nf"
	"lemur/internal/nsh"
	"lemur/internal/packet"
)

// processCopy is the server hop under the copying contract — the input is
// never mutated and the output is a fresh buffer — walked apart from
// ProcessFrameInPlace: decap into a private copy, run the subgroup on its
// own decode, re-encap with the allocating nsh.Encap. The in-place tests
// hold the production hop to it byte for byte.
func processCopy(pl *Pipeline, frame []byte, env *nf.Env) ([]byte, error) {
	inner, spi, si, err := nsh.DecapInPlace(append([]byte(nil), frame...))
	if err != nil {
		return nil, err
	}
	sg := pl.SubgroupFor(spi, si)
	if sg == nil {
		return nil, errNoSubgroup
	}
	var p packet.Packet
	if err := p.Decode(inner); err != nil {
		return nil, err
	}
	for _, fn := range sg.NFs {
		if fn.Process(&p, env); p.Drop {
			return nil, nil
		}
	}
	p.SyncHeaders()
	if si < sg.AdvanceSI {
		return nil, fmt.Errorf("SI underflow (si=%d advance=%d)", si, sg.AdvanceSI)
	}
	outSPI, outSI := spi, si-sg.AdvanceSI
	if b := pickBranch(sg.Branches, &p); b != nil {
		outSPI, outSI = b.SPI, b.SI
	}
	return nsh.Encap(p.Data, outSPI, outSI)
}
