package nsh

import (
	"bytes"
	"testing"

	"lemur/internal/packet"
)

func vlanFrame(t *testing.T) []byte {
	t.Helper()
	return packet.Builder{
		Src: packet.IPv4Addr{10, 0, 0, 1}, Dst: packet.IPv4Addr{10, 0, 0, 2},
		SrcPort: 1000, DstPort: 2000, VLANID: 42, Payload: []byte("vlan-payload"),
	}.Build()
}

// TestEncapInPlaceMatchesEncap: the in-place variant must produce the exact
// bytes of the allocating encapCopy, with and without spare capacity, for
// plain and VLAN-tagged frames.
func TestEncapInPlaceMatchesEncap(t *testing.T) {
	for _, mk := range []func(*testing.T) []byte{plainFrame, vlanFrame} {
		orig := mk(t)
		want, err := encapCopy(orig, 0x2345, 12)
		if err != nil {
			t.Fatal(err)
		}

		// No headroom: falls back to an alloc but bytes must match.
		tight := append([]byte(nil), orig...)
		got, err := EncapInPlace(tight, 0x2345, 12)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("EncapInPlace (tight) diverges from encapCopy")
		}

		// Spare capacity: must reuse the buffer and still match.
		roomy := make([]byte, len(orig), len(orig)+packet.NSHLen)
		copy(roomy, orig)
		got2, err := EncapInPlace(roomy, 0x2345, 12)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got2, want) {
			t.Fatal("EncapInPlace (roomy) diverges from encapCopy")
		}
		if &got2[0] != &roomy[0] {
			t.Fatal("EncapInPlace with spare capacity must not reallocate")
		}
	}
}

// TestDecapInPlaceMatchesDecap: same bytes as the copying decapCopy, base
// pointer preserved.
func TestDecapInPlaceMatchesDecap(t *testing.T) {
	orig := plainFrame(t)
	enc, err := encapCopy(orig, 77, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, spi, si, err := decapCopy(enc)
	if err != nil || spi != 77 || si != 5 {
		t.Fatalf("decapCopy = %d/%d, %v", spi, si, err)
	}
	mine := append([]byte(nil), enc...)
	got, spi2, si2, err := DecapInPlace(mine)
	if err != nil || spi2 != 77 || si2 != 5 {
		t.Fatalf("DecapInPlace = %d/%d, %v", spi2, si2, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("DecapInPlace diverges from decapCopy")
	}
	if &got[0] != &mine[0] || cap(got) != cap(mine) {
		t.Fatal("DecapInPlace must keep the base pointer and capacity for reuse")
	}
	if !bytes.Equal(got, orig) {
		t.Fatal("decap did not restore the original frame")
	}
}

// TestShiftRoundTrip: DecapShift exposes the inner frame without copying the
// payload; EncapShift re-wraps it. The round trip must be byte-identical to
// decapCopy followed by encapCopy, and the inner slice must alias the frame.
func TestShiftRoundTrip(t *testing.T) {
	for _, mk := range []func(*testing.T) []byte{plainFrame, vlanFrame} {
		orig := mk(t)
		enc, err := encapCopy(orig, 300, 8)
		if err != nil {
			t.Fatal(err)
		}
		wantInner, _, _, err := decapCopy(enc)
		if err != nil {
			t.Fatal(err)
		}

		frame := append([]byte(nil), enc...)
		inner, spi, si, err := DecapShift(frame)
		if err != nil || spi != 300 || si != 8 {
			t.Fatalf("DecapShift = %d/%d, %v", spi, si, err)
		}
		if !bytes.Equal(inner, wantInner) {
			t.Fatal("DecapShift inner diverges from decapCopy")
		}
		if &inner[0] != &frame[packet.NSHLen] {
			t.Fatal("DecapShift inner must alias frame[NSHLen:]")
		}

		wantEnc, err := encapCopy(wantInner, 301, 6)
		if err != nil {
			t.Fatal(err)
		}
		if err := EncapShift(frame, 301, 6); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame, wantEnc) {
			t.Fatal("EncapShift diverges from encapCopy")
		}
	}
}

// TestShiftErrors: the in-place codecs reject malformed inputs.
func TestShiftErrors(t *testing.T) {
	if _, _, _, err := DecapShift(plainFrame(t)); err == nil {
		t.Error("DecapShift on plain frame must fail")
	}
	if _, _, _, err := DecapInPlace(plainFrame(t)); err == nil {
		t.Error("DecapInPlace on plain frame must fail")
	}
	if _, err := EncapInPlace(plainFrame(t), maxSPI+1, 1); err == nil {
		t.Error("EncapInPlace SPI overflow must fail")
	}
	enc, _ := encapCopy(plainFrame(t), 1, 1)
	if _, err := EncapInPlace(enc, 2, 2); err == nil {
		t.Error("double EncapInPlace must fail")
	}
	if err := EncapShift(append([]byte(nil), enc...), maxSPI+1, 1); err == nil {
		t.Error("EncapShift SPI overflow must fail")
	}
}
