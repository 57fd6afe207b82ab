// Package packet implements the packet representation and header codecs used
// by every simulated platform in the Lemur reproduction.
//
// The design is inspired by gopacket's DecodingLayerParser: a Packet owns one
// contiguous byte buffer and a set of preallocated header structs that are
// decoded in place, so steady-state processing does not allocate. Supported
// headers are Ethernet, 802.1Q VLAN, NSH (RFC 8300), IPv4, TCP and UDP — the
// set needed by the paper's NF library and its NSH/VLAN chain-steering.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// EtherType values understood by the codecs.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeVLAN uint16 = 0x8100
	EtherTypeNSH  uint16 = 0x894F
)

// IP protocol numbers understood by the codecs.
const (
	IPProtoTCP uint8 = 6
	IPProtoUDP uint8 = 17
)

// Header sizes in bytes.
const (
	EthernetLen = 14
	VLANLen     = 4
	NSHLen      = 8 // base + service path header, MD type 2, no metadata
	IPv4Len     = 20
	TCPLen      = 20
	UDPLen      = 8
)

// TailRoom is the spare capacity a frame buffer needs behind the frame for
// every hop to stay inside it: the two headers the dataplane can push onto
// a frame, each at most once (an NSH header by the switch, a VLAN tag by
// nf.tunnel). trafficgen reserves it; nsh.EncapInPlace and nf.tunnel copy
// into a fresh buffer only when it is missing.
const TailRoom = NSHLen + VLANLen

// Common decode errors.
var (
	ErrTooShort    = errors.New("packet: buffer too short")
	errBadVersion  = errors.New("packet: unsupported header version")
	errNoSuchLayer = errors.New("packet: layer not present")
)

// MAC is a 6-byte Ethernet address.
type MAC [6]byte

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IPv4Addr is a 4-byte IPv4 address in network order.
type IPv4Addr [4]byte

func (a IPv4Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// Uint32 returns the address as a host-order integer, convenient for prefix
// matching.
func (a IPv4Addr) Uint32() uint32 { return binary.BigEndian.Uint32(a[:]) }

// AddrFromUint32 converts a host-order integer back to an address.
func AddrFromUint32(v uint32) IPv4Addr {
	var a IPv4Addr
	binary.BigEndian.PutUint32(a[:], v)
	return a
}

// Ethernet is a decoded Ethernet II header.
type Ethernet struct {
	Dst, Src  MAC
	EtherType uint16
}

// VLAN is a decoded 802.1Q tag.
type VLAN struct {
	PCP       uint8  // priority code point (3 bits)
	VID       uint16 // VLAN identifier (12 bits)
	EtherType uint16 // encapsulated ethertype
}

// nsh is a decoded Network Service Header (RFC 8300), MD type 2 with no
// metadata: a 4-byte base header followed by a 4-byte service path header.
type nsh struct {
	TTL       uint8
	MDType    uint8
	NextProto uint8
	SPI       uint32 // service path identifier (24 bits)
	SI        uint8  // service index
}

// IPv4 is a decoded IPv4 header (options are not supported; IHL must be 5).
type IPv4 struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src, Dst IPv4Addr
}

// TCP is a decoded TCP header (options beyond the fixed 20 bytes are treated
// as payload for our purposes).
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
}

// UDP is a decoded UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
}

// FiveTuple identifies a flow.
type FiveTuple struct {
	Src, Dst         IPv4Addr
	SrcPort, DstPort uint16
	Proto            uint8
}

func (t FiveTuple) String() string {
	return fmt.Sprintf("%s:%d->%s:%d/%d", t.Src, t.SrcPort, t.Dst, t.DstPort, t.Proto)
}

// Hash returns a cheap non-cryptographic hash of the tuple, symmetric inputs
// NOT folded (A->B and B->A hash differently), suitable for load balancing:
// FNV-1a over the 13 tuple bytes (addresses, then ports big-endian, then the
// protocol), unrolled, then a xorshift-multiply avalanche.
func (t FiveTuple) Hash() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h = (h ^ uint64(t.Src[0])) * prime
	h = (h ^ uint64(t.Src[1])) * prime
	h = (h ^ uint64(t.Src[2])) * prime
	h = (h ^ uint64(t.Src[3])) * prime
	h = (h ^ uint64(t.Dst[0])) * prime
	h = (h ^ uint64(t.Dst[1])) * prime
	h = (h ^ uint64(t.Dst[2])) * prime
	h = (h ^ uint64(t.Dst[3])) * prime
	h = (h ^ uint64(t.SrcPort>>8)) * prime
	h = (h ^ uint64(t.SrcPort&0xff)) * prime
	h = (h ^ uint64(t.DstPort>>8)) * prime
	h = (h ^ uint64(t.DstPort&0xff)) * prime
	h = (h ^ uint64(t.Proto)) * prime
	// Finalize so low bits are well mixed — consumers take h % nBackends.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// Packet is one packet plus decoded header views and per-packet metadata used
// by NFs and the steering machinery. The zero value is an empty packet; use
// Decode to populate it from wire bytes or a Builder to construct one.
type Packet struct {
	Data []byte // full frame bytes

	// Presence flags for the decoded layers.
	HasEth, HasVLAN, HasNSH, HasIPv4, HasTCP, HasUDP bool

	Eth  Ethernet
	VLAN VLAN
	NSH  nsh
	IP   IPv4
	TCP  TCP
	UDP  UDP

	// PayloadOff is the byte offset of the L4 payload (or of the first
	// undecoded byte if decoding stopped earlier).
	PayloadOff int

	// Metadata carried between NFs within one platform, mirroring the
	// paper's P4/BESS per-packet metadata.
	Drop         bool   // set by an NF to stop the chain (e.g. ACL deny)
	TrafficClass uint32 // assigned by classification/steering
	OutPort      int    // egress port chosen by a forwarding NF; -1 = unset
}

// Payload returns the L4 payload bytes (empty if none).
func (p *Packet) Payload() []byte {
	if p.PayloadOff < 0 || p.PayloadOff > len(p.Data) {
		return nil
	}
	return p.Data[p.PayloadOff:]
}

// Tuple extracts the flow 5-tuple. It returns an error if the packet has no
// IPv4 layer.
func (p *Packet) Tuple() (FiveTuple, error) {
	if !p.HasIPv4 {
		return FiveTuple{}, errNoSuchLayer
	}
	t := FiveTuple{Src: p.IP.Src, Dst: p.IP.Dst, Proto: p.IP.Protocol}
	switch {
	case p.HasTCP:
		t.SrcPort, t.DstPort = p.TCP.SrcPort, p.TCP.DstPort
	case p.HasUDP:
		t.SrcPort, t.DstPort = p.UDP.SrcPort, p.UDP.DstPort
	}
	return t, nil
}

// reset clears decoded state and metadata but keeps the backing buffer so a
// Packet can be reused across decodes without allocation.
func (p *Packet) reset() {
	data := p.Data[:0]
	*p = Packet{Data: data, OutPort: -1}
}

// Decode parses the frame in data into p, replacing any previous contents.
// The buffer is referenced, not copied (gopacket's NoCopy convention): the
// caller must not mutate data while p is in use.
func (p *Packet) Decode(data []byte) error {
	p.reset()
	p.Data = data
	off := 0

	if len(data) < EthernetLen {
		return fmt.Errorf("ethernet: %w", ErrTooShort)
	}
	copy(p.Eth.Dst[:], data[0:6])
	copy(p.Eth.Src[:], data[6:12])
	p.Eth.EtherType = binary.BigEndian.Uint16(data[12:14])
	p.HasEth = true
	off = EthernetLen

	next := p.Eth.EtherType
	if next == EtherTypeVLAN {
		if len(data) < off+VLANLen {
			return fmt.Errorf("vlan: %w", ErrTooShort)
		}
		tci := binary.BigEndian.Uint16(data[off : off+2])
		p.VLAN.PCP = uint8(tci >> 13)
		p.VLAN.VID = tci & 0x0FFF
		p.VLAN.EtherType = binary.BigEndian.Uint16(data[off+2 : off+4])
		p.HasVLAN = true
		off += VLANLen
		next = p.VLAN.EtherType
	}

	if next == EtherTypeNSH {
		if len(data) < off+NSHLen {
			return fmt.Errorf("nsh: %w", ErrTooShort)
		}
		b0 := binary.BigEndian.Uint32(data[off : off+4])
		ver := uint8(b0 >> 30)
		if ver != 0 {
			return fmt.Errorf("nsh: version %d: %w", ver, errBadVersion)
		}
		p.NSH.TTL = uint8((b0 >> 22) & 0x3F)
		p.NSH.MDType = uint8((b0 >> 12) & 0x0F)
		p.NSH.NextProto = uint8(b0 & 0xFF)
		sp := binary.BigEndian.Uint32(data[off+4 : off+8])
		p.NSH.SPI = sp >> 8
		p.NSH.SI = uint8(sp & 0xFF)
		p.HasNSH = true
		off += NSHLen
		switch p.NSH.NextProto {
		case 0x01:
			next = EtherTypeIPv4
		default:
			p.PayloadOff = off
			return nil
		}
	}

	if next != EtherTypeIPv4 {
		p.PayloadOff = off
		return nil
	}
	if len(data) < off+IPv4Len {
		return fmt.Errorf("ipv4: %w", ErrTooShort)
	}
	vihl := data[off]
	if vihl>>4 != 4 {
		return fmt.Errorf("ipv4: version %d: %w", vihl>>4, errBadVersion)
	}
	if vihl&0x0F != 5 {
		return fmt.Errorf("ipv4: options unsupported (ihl=%d): %w", vihl&0x0F, errBadVersion)
	}
	p.IP.TOS = data[off+1]
	p.IP.TotalLen = binary.BigEndian.Uint16(data[off+2 : off+4])
	p.IP.ID = binary.BigEndian.Uint16(data[off+4 : off+6])
	p.IP.TTL = data[off+8]
	p.IP.Protocol = data[off+9]
	p.IP.Checksum = binary.BigEndian.Uint16(data[off+10 : off+12])
	copy(p.IP.Src[:], data[off+12:off+16])
	copy(p.IP.Dst[:], data[off+16:off+20])
	p.HasIPv4 = true
	off += IPv4Len

	switch p.IP.Protocol {
	case IPProtoTCP:
		if len(data) < off+TCPLen {
			return fmt.Errorf("tcp: %w", ErrTooShort)
		}
		p.TCP.SrcPort = binary.BigEndian.Uint16(data[off : off+2])
		p.TCP.DstPort = binary.BigEndian.Uint16(data[off+2 : off+4])
		p.TCP.Seq = binary.BigEndian.Uint32(data[off+4 : off+8])
		p.TCP.Ack = binary.BigEndian.Uint32(data[off+8 : off+12])
		p.TCP.Flags = data[off+13]
		p.TCP.Window = binary.BigEndian.Uint16(data[off+14 : off+16])
		p.HasTCP = true
		off += TCPLen
	case IPProtoUDP:
		if len(data) < off+UDPLen {
			return fmt.Errorf("udp: %w", ErrTooShort)
		}
		p.UDP.SrcPort = binary.BigEndian.Uint16(data[off : off+2])
		p.UDP.DstPort = binary.BigEndian.Uint16(data[off+2 : off+4])
		p.UDP.Length = binary.BigEndian.Uint16(data[off+4 : off+6])
		p.HasUDP = true
		off += UDPLen
	}
	p.PayloadOff = off
	return nil
}

// SyncHeaders re-serializes the decoded header structs back into p.Data,
// preserving layout. NFs mutate the struct views (e.g. NAT rewrites IP.Src)
// and call SyncHeaders before the packet leaves the platform.
func (p *Packet) SyncHeaders() {
	off := 0
	if p.HasEth {
		copy(p.Data[0:6], p.Eth.Dst[:])
		copy(p.Data[6:12], p.Eth.Src[:])
		binary.BigEndian.PutUint16(p.Data[12:14], p.Eth.EtherType)
		off = EthernetLen
	}
	if p.HasVLAN {
		tci := uint16(p.VLAN.PCP)<<13 | p.VLAN.VID&0x0FFF
		binary.BigEndian.PutUint16(p.Data[off:off+2], tci)
		binary.BigEndian.PutUint16(p.Data[off+2:off+4], p.VLAN.EtherType)
		off += VLANLen
	}
	if p.HasNSH {
		putNSH(p.Data[off:off+NSHLen], p.NSH)
		off += NSHLen
	}
	if p.HasIPv4 {
		p.Data[off] = 0x45
		p.Data[off+1] = p.IP.TOS
		binary.BigEndian.PutUint16(p.Data[off+2:off+4], p.IP.TotalLen)
		binary.BigEndian.PutUint16(p.Data[off+4:off+6], p.IP.ID)
		p.Data[off+8] = p.IP.TTL
		p.Data[off+9] = p.IP.Protocol
		copy(p.Data[off+12:off+16], p.IP.Src[:])
		copy(p.Data[off+16:off+20], p.IP.Dst[:])
		// Recompute the header checksum over the updated fields.
		binary.BigEndian.PutUint16(p.Data[off+10:off+12], 0)
		p.IP.Checksum = ipChecksum(p.Data[off : off+IPv4Len])
		binary.BigEndian.PutUint16(p.Data[off+10:off+12], p.IP.Checksum)
		off += IPv4Len
	}
	if p.HasTCP {
		binary.BigEndian.PutUint16(p.Data[off:off+2], p.TCP.SrcPort)
		binary.BigEndian.PutUint16(p.Data[off+2:off+4], p.TCP.DstPort)
		binary.BigEndian.PutUint32(p.Data[off+4:off+8], p.TCP.Seq)
		binary.BigEndian.PutUint32(p.Data[off+8:off+12], p.TCP.Ack)
		p.Data[off+12] = 5 << 4 // data offset
		p.Data[off+13] = p.TCP.Flags
		binary.BigEndian.PutUint16(p.Data[off+14:off+16], p.TCP.Window)
	} else if p.HasUDP {
		binary.BigEndian.PutUint16(p.Data[off:off+2], p.UDP.SrcPort)
		binary.BigEndian.PutUint16(p.Data[off+2:off+4], p.UDP.DstPort)
		binary.BigEndian.PutUint16(p.Data[off+4:off+6], p.UDP.Length)
	}
}

func putNSH(b []byte, h nsh) {
	// length field = header size in 4-byte words (2 for MD type 2, no metadata)
	b0 := uint32(h.TTL&0x3F)<<22 | uint32(2)<<16 | uint32(h.MDType&0x0F)<<12 | uint32(h.NextProto)
	binary.BigEndian.PutUint32(b[0:4], b0)
	binary.BigEndian.PutUint32(b[4:8], h.SPI<<8|uint32(h.SI))
}

func ipChecksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	for sum > 0xFFFF {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// VerifyIPChecksum reports whether the IPv4 header checksum in Data is valid.
func (p *Packet) VerifyIPChecksum() bool {
	off := EthernetLen
	if p.HasVLAN {
		off += VLANLen
	}
	if p.HasNSH {
		off += NSHLen
	}
	if !p.HasIPv4 || len(p.Data) < off+IPv4Len {
		return false
	}
	return ipChecksum(p.Data[off:off+IPv4Len]) == 0
}
