// Package nsh implements Network Service Header (RFC 8300) chain steering:
// encapsulating frames with an SPI/SI service-path tag, reading and
// rewriting that tag as each hop advances the service index, and the
// VLAN-vid fallback encoding used when a platform (the paper's OpenFlow
// switch) cannot carry NSH.
//
// A service path (SPI) is one linearized NF chain; the service index (SI)
// counts down as the packet traverses NFs, so "which NF comes next" is a
// pure function of (SPI, SI) — this is what lets the ToR switch act as the
// chain coordinator.
package nsh

import (
	"encoding/binary"
	"errors"
	"fmt"

	"lemur/internal/packet"
)

// maxSPI is the largest service path identifier (24-bit field).
const maxSPI = 1<<24 - 1

// initialTTL is the TTL set on freshly encapsulated packets.
const initialTTL = 63

// ErrNotEncapped is returned when a decap or tag operation is applied to a
// frame with no NSH header.
var ErrNotEncapped = errors.New("nsh: frame is not NSH-encapsulated")

// tagOffset locates the byte offset of the ethertype field that would carry
// (or carries) the NSH ethertype: after the Ethernet header, skipping one
// optional outer 802.1Q tag (an NF like Tunnel may tag the transport frame
// mid-chain).
func tagOffset(frame []byte) (etherTypeOff, headerOff int, err error) {
	if len(frame) < packet.EthernetLen {
		return 0, 0, fmt.Errorf("nsh: %w", packet.ErrTooShort)
	}
	etOff := 12
	hdrOff := packet.EthernetLen
	if binary.BigEndian.Uint16(frame[etOff:]) == packet.EtherTypeVLAN {
		etOff = packet.EthernetLen + 2
		hdrOff = packet.EthernetLen + packet.VLANLen
		if len(frame) < hdrOff {
			return 0, 0, fmt.Errorf("nsh: %w", packet.ErrTooShort)
		}
	}
	return etOff, hdrOff, nil
}

// nshOffset returns the offset of the NSH header in an encapsulated frame.
func nshOffset(frame []byte) (int, error) {
	etOff, hdrOff, err := tagOffset(frame)
	if err != nil {
		return 0, err
	}
	if binary.BigEndian.Uint16(frame[etOff:]) != packet.EtherTypeNSH ||
		len(frame) < hdrOff+packet.NSHLen {
		return 0, ErrNotEncapped
	}
	return hdrOff, nil
}

// Encap inserts an NSH header (MD type 2, no metadata) between the L2
// headers (Ethernet plus an optional outer VLAN tag) and the IPv4 payload,
// returning a new frame.
func Encap(frame []byte, spi uint32, si uint8) ([]byte, error) {
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
	out := make([]byte, len(frame)+packet.NSHLen)
	copy(out, frame[:hdrOff])
	binary.BigEndian.PutUint16(out[etOff:], packet.EtherTypeNSH)
	putBaseHeader(out[hdrOff:], spi, si)
	copy(out[hdrOff+packet.NSHLen:], frame[hdrOff:])
	return out, nil
}

// Tag reads the SPI/SI of an encapsulated frame without modifying it.
func Tag(frame []byte) (spi uint32, si uint8, err error) {
	off, err := nshOffset(frame)
	if err != nil {
		return 0, 0, ErrNotEncapped
	}
	sp := binary.BigEndian.Uint32(frame[off+4:])
	return sp >> 8, uint8(sp), nil
}

// SetTag rewrites the SPI/SI of an already-encapsulated frame, used when a
// branch moves the packet onto a different service path.
func SetTag(frame []byte, spi uint32, si uint8) error {
	off, err := nshOffset(frame)
	if err != nil {
		return ErrNotEncapped
	}
	if spi > maxSPI {
		return fmt.Errorf("nsh: SPI %#x exceeds 24 bits", spi)
	}
	binary.BigEndian.PutUint32(frame[off+4:], spi<<8|uint32(si))
	return nil
}
