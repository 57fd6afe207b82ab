package bpf

import (
	"math/rand"
	"testing"

	"lemur/internal/packet"
)

// TestCompileNeverPanics: arbitrary expression soup must error cleanly.
func TestCompileNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	alphabet := []byte("ip.src dst proto tos port tcp udp vlan.vid in && || ! () == != < > = 0123456789./ true false")
	for trial := 0; trial < 500; trial++ {
		buf := make([]byte, rng.Intn(80))
		for i := range buf {
			buf[i] = alphabet[rng.Intn(len(alphabet))]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", buf, r)
				}
			}()
			if f, err := Compile(string(buf)); err == nil {
				// Compiled filters must also evaluate without panicking.
				p := packet.Builder{
					Src: packet.IPv4Addr{10, 1, 2, 3}, Dst: packet.IPv4Addr{4, 5, 6, 7},
					SrcPort: 99, DstPort: 443,
				}.New()
				_ = f.Match(p)
			}
		}()
	}
}
