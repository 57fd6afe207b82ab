package nsh

import (
	"bytes"
	"math/rand"
	"testing"

	"lemur/internal/packet"
)

// randomFrame builds a well-formed frame with randomized header fields,
// VLAN-tagged half the time (Encap must handle both L2 layouts).
func randomFrame(rng *rand.Rand) []byte {
	b := packet.Builder{
		Src:     packet.IPv4Addr{10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))},
		Dst:     packet.IPv4Addr{172, 16, byte(rng.Intn(256)), byte(rng.Intn(256))},
		SrcPort: uint16(rng.Intn(65536)),
		DstPort: uint16(rng.Intn(65536)),
		Payload: make([]byte, rng.Intn(64)),
	}
	if rng.Intn(2) == 0 {
		b.VLANID = uint16(1 + rng.Intn(4094))
	}
	return b.Build()
}

// TestEncapDecapRoundTripFuzz: for random frames and random (SPI, SI),
// Encap -> Tag -> SetTag -> DecapInPlace must return the tag and the
// original frame bytes exactly (mirrors the seeded-random fuzz style of
// internal/bpf).
func TestEncapDecapRoundTripFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 500; trial++ {
		frame := randomFrame(rng)
		spi := uint32(rng.Intn(maxSPI + 1))
		si := uint8(rng.Intn(256))

		enc, err := Encap(frame, spi, si)
		if err != nil {
			t.Fatalf("trial %d: Encap(spi=%d si=%d): %v", trial, spi, si, err)
		}
		gotSPI, gotSI, err := Tag(enc)
		if err != nil {
			t.Fatalf("trial %d: Tag: %v", trial, err)
		}
		if gotSPI != spi || gotSI != si {
			t.Fatalf("trial %d: tag = (%d,%d), want (%d,%d)", trial, gotSPI, gotSI, spi, si)
		}

		// Retag to a fresh random point, then check the decap returns it.
		spi2 := uint32(rng.Intn(maxSPI + 1))
		si2 := uint8(rng.Intn(256))
		if err := SetTag(enc, spi2, si2); err != nil {
			t.Fatalf("trial %d: SetTag: %v", trial, err)
		}
		dec, dSPI, dSI, err := DecapInPlace(enc)
		if err != nil {
			t.Fatalf("trial %d: DecapInPlace: %v", trial, err)
		}
		if dSPI != spi2 || dSI != si2 {
			t.Fatalf("trial %d: decap tag = (%d,%d), want (%d,%d)", trial, dSPI, dSI, spi2, si2)
		}
		if !bytes.Equal(dec, frame) {
			t.Fatalf("trial %d: round-trip mangled the frame:\n in:  %x\n out: %x", trial, frame, dec)
		}
	}
}

// TestDecodeGarbageNeverPanics: arbitrary byte soup through every decode
// entry point must error cleanly, never panic — the switch dataplane calls
// these on every frame it sees.
func TestDecodeGarbageNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 500; trial++ {
		buf := make([]byte, rng.Intn(120))
		rng.Read(buf)
		// Bias some trials toward almost-valid frames: real frame, truncated.
		if rng.Intn(3) == 0 {
			full := randomFrame(rng)
			if enc, err := Encap(full, uint32(rng.Intn(maxSPI+1)), uint8(rng.Intn(256))); err == nil {
				full = enc
			}
			buf = full[:rng.Intn(len(full)+1)]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic on %x: %v", trial, buf, r)
				}
			}()
			_, _, _ = Tag(buf)
			_, _, _, _ = DecapInPlace(append([]byte(nil), buf...))
			_, _, _, _ = DecapShift(append([]byte(nil), buf...))
			_ = SetTag(buf, uint32(rng.Intn(maxSPI+1)), uint8(rng.Intn(256)))
			_, _ = Encap(buf, uint32(rng.Intn(maxSPI+1)), uint8(rng.Intn(256)))
		}()
	}
}
