package pisa

import (
	"fmt"

	"lemur/internal/nf"
	"lemur/internal/nsh"
	"lemur/internal/packet"
)

// processCopy is the switch hop under the copying contract — the input is
// never mutated and the output is a fresh buffer — walked apart from
// process: classify or read the tag, run the entry's NFs on a private
// copy, then encap with the allocating nsh.Encap, decap into a fresh
// buffer, or retag. The in-place tests hold the production hop to it byte
// for byte, verdict for verdict.
func processCopy(s *Switch, frame []byte, env *nf.Env) ([]byte, Forward, error) {
	drop := Forward{Kind: Dropped}
	spi, si, tagErr := nsh.Tag(frame)
	tagged := tagErr == nil
	var p packet.Packet
	if err := p.Decode(append([]byte(nil), frame...)); err != nil {
		return nil, drop, err
	}
	if !tagged {
		matched := false
		for _, r := range s.rules {
			if r.Filter == nil || r.Filter.Match(&p) {
				spi, si, matched = r.SPI, r.SI, true
				break
			}
		}
		if !matched {
			return nil, drop, errNoPath
		}
	}
	e := s.Entry(spi, si)
	if e == nil {
		return nil, drop, errNoPath
	}
	for _, fn := range e.Apply {
		if fn.Process(&p, env); p.Drop {
			return nil, drop, nil
		}
	}
	p.SyncHeaders()
	outSPI, outSI := spi, si
	if b := pickBranch(e.Branches, &p); b != nil {
		outSPI, outSI = b.SPI, b.SI
	} else if e.AdvanceSI > 0 {
		if si < e.AdvanceSI {
			return nil, drop, fmt.Errorf("SI underflow (si=%d advance=%d)", si, e.AdvanceSI)
		}
		outSI = si - e.AdvanceSI
	}
	out := append([]byte(nil), p.Data...)
	switch {
	case e.Encap && !tagged:
		enc, err := nsh.Encap(out, outSPI, outSI)
		if err != nil {
			return nil, drop, err
		}
		return enc, e.Out, nil
	case tagged && e.Decap:
		dec, _, _, err := nsh.DecapInPlace(out)
		if err != nil {
			return nil, drop, err
		}
		return dec, e.Out, nil
	case tagged && (outSPI != spi || outSI != si):
		if err := nsh.SetTag(out, outSPI, outSI); err != nil {
			return nil, drop, err
		}
	}
	return out, e.Out, nil
}
