package packet

import "encoding/binary"

// Builder constructs packet frames for tests, the traffic generator, and
// encap/decap modules. It fills sensible defaults so callers only set what
// they care about.
type Builder struct {
	EthSrc, EthDst MAC
	VLANID         uint16 // 0 = no VLAN tag
	NSH            *nsh   // nil = no NSH header
	Src, Dst       IPv4Addr
	Proto          uint8 // IPProtoTCP or IPProtoUDP; 0 defaults to UDP
	SrcPort        uint16
	DstPort        uint16
	TTL            uint8 // 0 defaults to 64
	Payload        []byte
	// PayloadLen reserves space for a payload the caller fills in afterwards.
	// Only consulted when Payload is nil; AppendTo zero-fills the region so
	// recycled buffers never leak stale bytes into unfilled payloads.
	PayloadLen int
	// KeepPayload skips that zero fill: the reserved region keeps whatever
	// dst held there. Only for frames whose payload nothing reads.
	KeepPayload bool
}

// Build serializes the described frame into a fresh buffer.
func (b Builder) Build() []byte { return b.AppendTo(nil) }

// AppendTo serializes the described frame into dst (growing it as needed) and
// returns the extended slice. Every byte of the frame is written explicitly,
// so dst may be a recycled buffer with arbitrary prior contents.
func (b Builder) AppendTo(dst []byte) []byte {
	proto := b.Proto
	if proto == 0 {
		proto = IPProtoUDP
	}
	ttl := b.TTL
	if ttl == 0 {
		ttl = 64
	}
	l4 := UDPLen
	if proto == IPProtoTCP {
		l4 = TCPLen
	}
	hdr := EthernetLen
	if b.VLANID != 0 {
		hdr += VLANLen
	}
	if b.NSH != nil {
		hdr += NSHLen
	}
	payLen := len(b.Payload)
	if b.Payload == nil {
		payLen = b.PayloadLen
	}
	total := hdr + IPv4Len + l4 + payLen
	base := len(dst)
	if cap(dst)-base >= total {
		dst = dst[:base+total]
	} else {
		dst = append(dst, make([]byte, total)...)
	}
	buf := dst[base:]

	off := 0
	copy(buf[0:6], b.EthDst[:])
	copy(buf[6:12], b.EthSrc[:])
	et := EtherTypeIPv4
	if b.NSH != nil {
		et = EtherTypeNSH
	}
	if b.VLANID != 0 {
		binary.BigEndian.PutUint16(buf[12:14], EtherTypeVLAN)
		off = EthernetLen
		binary.BigEndian.PutUint16(buf[off:off+2], b.VLANID&0x0FFF)
		binary.BigEndian.PutUint16(buf[off+2:off+4], et)
		off += VLANLen
	} else {
		binary.BigEndian.PutUint16(buf[12:14], et)
		off = EthernetLen
	}
	if b.NSH != nil {
		h := *b.NSH
		if h.NextProto == 0 {
			h.NextProto = 0x01 // IPv4
		}
		if h.TTL == 0 {
			h.TTL = 63
		}
		putNSH(buf[off:off+NSHLen], h)
		off += NSHLen
	}

	ipLen := IPv4Len + l4 + payLen
	buf[off] = 0x45
	buf[off+1] = 0 // TOS
	binary.BigEndian.PutUint16(buf[off+2:off+4], uint16(ipLen))
	binary.BigEndian.PutUint16(buf[off+4:off+6], 0) // ID
	binary.BigEndian.PutUint16(buf[off+6:off+8], 0) // flags+frag
	buf[off+8] = ttl
	buf[off+9] = proto
	binary.BigEndian.PutUint16(buf[off+10:off+12], 0)
	copy(buf[off+12:off+16], b.Src[:])
	copy(buf[off+16:off+20], b.Dst[:])
	cs := ipChecksum(buf[off : off+IPv4Len])
	binary.BigEndian.PutUint16(buf[off+10:off+12], cs)
	off += IPv4Len

	binary.BigEndian.PutUint16(buf[off:off+2], b.SrcPort)
	binary.BigEndian.PutUint16(buf[off+2:off+4], b.DstPort)
	if proto == IPProtoTCP {
		binary.BigEndian.PutUint32(buf[off+4:off+8], 0)  // seq
		binary.BigEndian.PutUint32(buf[off+8:off+12], 0) // ack
		buf[off+12] = 5 << 4
		buf[off+13] = 0x10 // ACK
		binary.BigEndian.PutUint16(buf[off+14:off+16], 65535)
		binary.BigEndian.PutUint16(buf[off+16:off+18], 0) // checksum
		binary.BigEndian.PutUint16(buf[off+18:off+20], 0) // urgent
		off += TCPLen
	} else {
		binary.BigEndian.PutUint16(buf[off+4:off+6], uint16(UDPLen+payLen))
		binary.BigEndian.PutUint16(buf[off+6:off+8], 0) // checksum
		off += UDPLen
	}
	if b.Payload != nil {
		copy(buf[off:], b.Payload)
	} else if !b.KeepPayload {
		clear(buf[off:])
	}
	return dst
}

// New builds the frame and decodes it into a fresh Packet. It panics if its
// own output fails to decode, which would indicate a codec bug.
func (b Builder) New() *Packet {
	p := &Packet{}
	if err := p.Decode(b.Build()); err != nil {
		panic("packet: builder produced undecodable frame: " + err.Error())
	}
	return p
}
