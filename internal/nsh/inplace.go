package nsh

import (
	"encoding/binary"
	"errors"
	"fmt"

	"lemur/internal/packet"
)

// In-place encap/decap for every device hop. Encap output is byte-identical
// to Encap's, decap output to the plain frame Encap wrapped, and both reuse
// the caller's buffer instead of allocating:
//
//   - EncapInPlace / DecapInPlace grow or shrink the frame at its tail,
//     memmoving the payload and preserving the buffer base pointer so pooled
//     buffers keep their capacity across recycles.
//   - DecapShift / EncapShift exploit that only the short L2 header sits in
//     front of the NSH header: decap slides the 14-18 L2 bytes right over the
//     NSH header (the inner frame aliases frame[NSHLen:]) and encap slides
//     them back, so a server hop never copies the packet payload at all.

// EncapInPlace inserts an NSH header like Encap but reuses frame's backing
// array when its capacity allows, shifting the L3 payload right by NSHLen.
// The returned slice shares frame's base pointer unless a grow was needed.
func EncapInPlace(frame []byte, spi uint32, si uint8) ([]byte, error) {
	if spi > maxSPI {
		return nil, fmt.Errorf("nsh: encap: SPI %#x exceeds 24 bits", spi)
	}
	etOff, hdrOff, err := tagOffset(frame)
	if err != nil {
		return nil, fmt.Errorf("nsh: encap: %w", err)
	}
	switch et := binary.BigEndian.Uint16(frame[etOff:]); et {
	case packet.EtherTypeNSH:
		return nil, errors.New("nsh: encap: frame already encapsulated")
	case packet.EtherTypeIPv4:
	default:
		return nil, fmt.Errorf("nsh: encap: inner ethertype %#x unsupported", et)
	}
	n := len(frame)
	var out []byte
	if cap(frame) >= n+packet.NSHLen {
		out = frame[:n+packet.NSHLen]
	} else {
		out = make([]byte, n+packet.NSHLen)
		copy(out, frame[:hdrOff])
	}
	copy(out[hdrOff+packet.NSHLen:], frame[hdrOff:n])
	binary.BigEndian.PutUint16(out[etOff:], packet.EtherTypeNSH)
	putBaseHeader(out[hdrOff:], spi, si)
	return out, nil
}

// DecapInPlace strips the NSH header, restoring the plain L2+IPv4 frame and
// returning the removed SPI/SI. It shifts the payload left within frame's
// backing array: the returned slice shares frame's base pointer (and
// therefore its full capacity), which keeps pooled buffers reusable for a
// later in-place re-encap.
func DecapInPlace(frame []byte) (out []byte, spi uint32, si uint8, err error) {
	etOff, hdrOff, err := tagOffset(frame)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("nsh: decap: %w", err)
	}
	if binary.BigEndian.Uint16(frame[etOff:]) != packet.EtherTypeNSH ||
		len(frame) < hdrOff+packet.NSHLen {
		return nil, 0, 0, ErrNotEncapped
	}
	sp := binary.BigEndian.Uint32(frame[hdrOff+4:])
	spi, si = sp>>8, uint8(sp)
	binary.BigEndian.PutUint16(frame[etOff:], packet.EtherTypeIPv4)
	copy(frame[hdrOff:], frame[hdrOff+packet.NSHLen:])
	return frame[:len(frame)-packet.NSHLen], spi, si, nil
}

// DecapShift strips the NSH header by sliding the L2 header right over it:
// the inner frame aliases frame[NSHLen:], so the L3 payload is never copied.
// Pair with EncapShift on the same backing array to round-trip a server hop
// with two small header moves and zero allocations.
func DecapShift(frame []byte) (inner []byte, spi uint32, si uint8, err error) {
	etOff, hdrOff, err := tagOffset(frame)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("nsh: decap: %w", err)
	}
	if binary.BigEndian.Uint16(frame[etOff:]) != packet.EtherTypeNSH ||
		len(frame) < hdrOff+packet.NSHLen {
		return nil, 0, 0, ErrNotEncapped
	}
	sp := binary.BigEndian.Uint32(frame[hdrOff+4:])
	spi, si = sp>>8, uint8(sp)
	copy(frame[packet.NSHLen:hdrOff+packet.NSHLen], frame[:hdrOff])
	inner = frame[packet.NSHLen:]
	binary.BigEndian.PutUint16(inner[etOff:], packet.EtherTypeIPv4)
	return inner, spi, si, nil
}

// EncapShift re-encapsulates after a DecapShift: full[NSHLen:] must hold a
// plain (decapped) frame whose L2 header EncapShift slides back to the front
// of full before writing a fresh NSH header, exactly as Encap would. The
// whole of full is a valid encapsulated frame on return.
func EncapShift(full []byte, spi uint32, si uint8) error {
	if spi > maxSPI {
		return fmt.Errorf("nsh: encap: SPI %#x exceeds 24 bits", spi)
	}
	if len(full) < packet.NSHLen {
		return fmt.Errorf("nsh: encap: %w", packet.ErrTooShort)
	}
	inner := full[packet.NSHLen:]
	etOff, hdrOff, err := tagOffset(inner)
	if err != nil {
		return fmt.Errorf("nsh: encap: %w", err)
	}
	switch et := binary.BigEndian.Uint16(inner[etOff:]); et {
	case packet.EtherTypeNSH:
		return errors.New("nsh: encap: frame already encapsulated")
	case packet.EtherTypeIPv4:
	default:
		return fmt.Errorf("nsh: encap: inner ethertype %#x unsupported", et)
	}
	copy(full[:hdrOff], inner[:hdrOff])
	binary.BigEndian.PutUint16(full[etOff:], packet.EtherTypeNSH)
	putBaseHeader(full[hdrOff:], spi, si)
	return nil
}

// putBaseHeader writes the 8-byte NSH header Encap produces: ver=0,
// ttl=initialTTL, len=2, mdtype=2, nextproto=IPv4, then the service path.
func putBaseHeader(b []byte, spi uint32, si uint8) {
	b0 := uint32(initialTTL)<<22 | uint32(2)<<16 | uint32(2)<<12 | uint32(0x01)
	binary.BigEndian.PutUint32(b, b0)
	binary.BigEndian.PutUint32(b[4:], spi<<8|uint32(si))
}
