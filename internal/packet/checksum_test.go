package packet

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// ipChecksumRef is the RFC 1071 loop over 16-bit words, folded until no
// carry is left: the oracle for ipChecksum.
func ipChecksumRef(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	for sum > 0xFFFF {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// TestIPChecksumMatchesLoop holds ipChecksum to the 16-bit loop on random
// IPv4 headers and on the headers whose sums carry the most, not at all, or
// through every fold.
func TestIPChecksumMatchesLoop(t *testing.T) {
	var headers [][IPv4Len]byte
	var zero, ones, carry [IPv4Len]byte
	for i := range ones {
		ones[i] = 0xFF
	}
	for i := range carry {
		// Alternating 0xFFFE and 0x0001 words: the sum, five times 0xFFFF,
		// carries out of 16 bits and folds to exactly 0xFFFF.
		if i%4 < 2 {
			carry[i] = []byte{0xFF, 0xFE}[i%2]
		} else {
			carry[i] = []byte{0x00, 0x01}[i%2]
		}
	}
	// Words summing to 0x1_0000_FFFF: the 64-bit sum needs every fold, the
	// last one turning 0x10000 into 1.
	fold3 := [IPv4Len]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x01}
	headers = append(headers, zero, ones, carry, fold3)
	rng := rand.New(rand.NewSource(1071))
	for i := 0; i < 10000; i++ {
		var h [IPv4Len]byte
		rng.Read(h[:])
		if i%2 == 0 {
			// Mostly-high bytes, so the sum carries out of 16 bits often.
			for j := range h {
				h[j] |= 0xF0
			}
		}
		headers = append(headers, h)
	}
	for _, h := range headers {
		if got, want := ipChecksum(h[:]), ipChecksumRef(h[:]); got != want {
			t.Fatalf("header %x: ipChecksum %#04x, loop %#04x", h, got, want)
		}
	}
}

var checksumSink uint16

func BenchmarkIPChecksum(b *testing.B) {
	h := [IPv4Len]byte{0x45, 0, 0x05, 0xdc, 0x1c, 0x46, 0x40, 0, 0x40, 0x06, 0, 0, 10, 0, 0, 1, 172, 16, 0, 2}
	for i := 0; i < b.N; i++ {
		h[5] = byte(i)
		checksumSink += ipChecksum(h[:])
	}
}
