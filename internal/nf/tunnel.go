package nf

import (
	"encoding/binary"

	"lemur/internal/packet"
)

// VLAN push and pop keep the buffer contract of the nsh in-place quartet
// (nsh.EncapInPlace/DecapInPlace): the frame an NF leaves in p.Data is a
// slice of the buffer it was given, with the same base pointer. The 12 MAC
// bytes stay where they are and everything after them moves by VLANLen, so
// device muxes and buffer pools that key on &p.Data[0] keep working.

// tunnel pushes an 802.1Q VLAN tag (the paper's "Push VLAN tag" NF). It is
// implementable on every platform.
type tunnel struct {
	base
	vid uint16
}

// newTunnel builds the VLAN push NF. Param "vid" (default 100).
func newTunnel(name string, params Params) (NF, error) {
	return &tunnel{base: base{name: name, class: "Tunnel"}, vid: uint16(params.int("vid", 100))}, nil
}

// Process inserts the VLAN tag after the Ethernet addresses, growing the
// frame at its tail inside p.Data's spare capacity; only a buffer with less
// than VLANLen of tail room is replaced by a copy. Frames that are already
// tagged pass through unchanged (no QinQ in this reproduction).
func (t *tunnel) Process(p *packet.Packet, _ *Env) {
	if p.HasVLAN || len(p.Data) < packet.EthernetLen {
		return
	}
	n := len(p.Data)
	var out []byte
	if cap(p.Data) >= n+packet.VLANLen {
		out = p.Data[:n+packet.VLANLen]
	} else {
		out = make([]byte, n+packet.VLANLen)
		copy(out, p.Data[:12])
	}
	copy(out[packet.EthernetLen+packet.VLANLen:], p.Data[packet.EthernetLen:n])
	binary.BigEndian.PutUint16(out[12:14], packet.EtherTypeVLAN)
	binary.BigEndian.PutUint16(out[14:16], t.vid&0x0FFF)
	binary.BigEndian.PutUint16(out[16:18], p.Eth.EtherType)
	reDecode(p, out)
}

// detunnel pops the VLAN tag ("Pop VLAN tag").
type detunnel struct {
	base
}

// newDetunnel builds the VLAN pop NF.
func newDetunnel(name string, _ Params) (NF, error) {
	return &detunnel{base: base{name: name, class: "Detunnel"}}, nil
}

// Process removes the VLAN tag by shifting the rest of the frame left over
// it; untagged frames pass through.
func (d *detunnel) Process(p *packet.Packet, _ *Env) {
	if !p.HasVLAN {
		return
	}
	binary.BigEndian.PutUint16(p.Data[12:14], p.VLAN.EtherType)
	copy(p.Data[packet.EthernetLen:], p.Data[packet.EthernetLen+packet.VLANLen:])
	reDecode(p, p.Data[:len(p.Data)-packet.VLANLen])
}

// reDecode replaces the packet contents, preserving NF-visible metadata
// across the re-parse.
func reDecode(p *packet.Packet, frame []byte) {
	drop, tc, out := p.Drop, p.TrafficClass, p.OutPort
	if err := p.Decode(frame); err != nil {
		// A length-changing rewrite produced a bad frame: drop rather than
		// forward garbage.
		p.Drop = true
		return
	}
	p.Drop, p.TrafficClass, p.OutPort = drop, tc, out
}
