package nsh

import (
	"errors"
	"testing"
	"testing/quick"

	"lemur/internal/packet"
)

func plainFrame(t *testing.T) []byte {
	t.Helper()
	return packet.Builder{
		Src: packet.IPv4Addr{10, 0, 0, 1}, Dst: packet.IPv4Addr{10, 0, 0, 2},
		SrcPort: 1000, DstPort: 2000, Payload: []byte("payload"),
	}.Build()
}

func TestEncapDecapRoundTrip(t *testing.T) {
	orig := plainFrame(t)
	enc, err := encapCopy(orig, 0x1234, 9)
	if err != nil {
		t.Fatal(err)
	}
	spi, si, err := Tag(enc)
	if err != nil || spi != 0x1234 || si != 9 {
		t.Fatalf("Tag = %#x/%d, %v", spi, si, err)
	}
	var p packet.Packet
	if err := p.Decode(enc); err != nil {
		t.Fatalf("encapped frame undecodable: %v", err)
	}
	if !p.HasNSH || !p.HasIPv4 || !p.HasUDP {
		t.Fatalf("inner layers lost: %+v", p)
	}
	dec, spi2, si2, err := DecapInPlace(enc)
	if err != nil || spi2 != 0x1234 || si2 != 9 {
		t.Fatalf("DecapInPlace = %#x/%d, %v", spi2, si2, err)
	}
	if len(dec) != len(orig) {
		t.Fatalf("decap length %d, want %d", len(dec), len(orig))
	}
	for i := range dec {
		if dec[i] != orig[i] {
			t.Fatalf("decap diverges at byte %d", i)
		}
	}
}

func TestEncapErrors(t *testing.T) {
	if _, err := EncapInPlace(plainFrame(t), maxSPI+1, 1); err == nil {
		t.Error("want SPI overflow error")
	}
	enc, _ := EncapInPlace(plainFrame(t), 1, 1)
	if _, err := EncapInPlace(enc, 2, 2); err == nil {
		t.Error("want double-encap error")
	}
	if _, err := EncapInPlace(make([]byte, 3), 1, 1); err == nil {
		t.Error("want short-frame error")
	}
	if _, _, _, err := DecapInPlace(plainFrame(t)); !errors.Is(err, ErrNotEncapped) {
		t.Errorf("DecapInPlace on plain frame: %v, want ErrNotEncapped", err)
	}
}

func TestSetTag(t *testing.T) {
	enc, _ := encapCopy(plainFrame(t), 1, 1)
	if err := SetTag(enc, 77, 33); err != nil {
		t.Fatal(err)
	}
	spi, si, _ := Tag(enc)
	if spi != 77 || si != 33 {
		t.Errorf("tag = %d/%d", spi, si)
	}
	if err := SetTag(enc, maxSPI+1, 0); err == nil {
		t.Error("want overflow error")
	}
	if err := SetTag(plainFrame(t), 1, 1); !errors.Is(err, ErrNotEncapped) {
		t.Errorf("SetTag plain: %v", err)
	}
}

func TestEncapTagProperty(t *testing.T) {
	orig := plainFrame(t)
	f := func(spi uint32, si uint8) bool {
		spi &= maxSPI
		enc, err := encapCopy(orig, spi, si)
		if err != nil {
			return false
		}
		gotSPI, gotSI, err := Tag(enc)
		return err == nil && gotSPI == spi && gotSI == si
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPackVLANRoundTripProperty(t *testing.T) {
	f := func(path uint32, index uint8) bool {
		path %= maxVLANPath + 1
		index %= maxVLANIndex + 1
		vid, err := PackVLAN(path, index)
		if path == 0 && index == 0 {
			return err != nil // reserved
		}
		if err != nil {
			return false
		}
		p2, i2 := uint32(vid>>vlanIndexBits), uint8(vid&maxVLANIndex)
		return p2 == path && i2 == index && vid <= 0x0FFF
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPackVLANOverflow(t *testing.T) {
	if _, err := PackVLAN(maxVLANPath+1, 0); !errors.Is(err, errVLANOverflow) {
		t.Errorf("path overflow: %v", err)
	}
	if _, err := PackVLAN(0, maxVLANIndex+1); !errors.Is(err, errVLANOverflow) {
		t.Errorf("index overflow: %v", err)
	}
}
