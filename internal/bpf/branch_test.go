package bpf

import (
	"math"
	"testing"

	"lemur/internal/packet"
)

// flowPkt is synthetic flow i: a UDP packet with its own source address and
// port.
func flowPkt(i int) *packet.Packet {
	return pkt(packet.AddrFromUint32(0x0a000000+uint32(i)), packet.IPv4Addr{172, 16, 0, 1},
		packet.IPProtoUDP, uint16(1024+i%50000), 80)
}

// flowU is the point in [0, 1) that PickBranch draws for p.
func flowU(t *testing.T, p *packet.Packet) float64 {
	t.Helper()
	tu, err := p.Tuple()
	if err != nil {
		t.Fatal(err)
	}
	return float64(tu.Hash()%100000) / 100000
}

// TestPickBranch covers every arm of the branch pick: filtered branches
// first and in order, the per-flow weighted split among filterless ones
// (shares within a binomial 4σ over 4 096 flows, and each flow where its
// hash point falls), the uniform pick by index at zero total weight, nil
// when only filtered branches exist and none matches, and u = 0 for a frame
// without a five-tuple.
func TestPickBranch(t *testing.T) {
	const flows = 4096
	dns, web := MustCompile("udp.dport == 53"), MustCompile("udp.dport == 80")

	t.Run("filtered first in order", func(t *testing.T) {
		br := []Branch{
			{Weight: 1, SPI: 1},
			{Filter: dns, SPI: 2},
			{Filter: MustCompile("ip.proto == 17"), SPI: 3},
			{Filter: web, SPI: 4},
		}
		for _, tc := range []struct {
			dport uint16
			want  uint32
		}{{53, 2}, {80, 3}} {
			p := pkt(packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{172, 16, 0, 1}, packet.IPProtoUDP, 4000, tc.dport)
			if got := PickBranch(br, p); got == nil || got.SPI != tc.want {
				t.Errorf("dport %d: picked %+v, want SPI %d", tc.dport, got, tc.want)
			}
		}
		p := pkt(packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{172, 16, 0, 1}, packet.IPProtoTCP, 4000, 443)
		if got := PickBranch(br, p); got == nil || got.SPI != 1 {
			t.Errorf("no filter matches: picked %+v, want the filterless SPI 1", got)
		}
	})

	t.Run("weighted split", func(t *testing.T) {
		for _, w := range [][2]float64{{0.5, 0.5}, {0.2, 0.8}, {1, 4}} {
			br := []Branch{{Weight: w[0], SPI: 1}, {Filter: dns, SPI: 9}, {Weight: w[1], SPI: 2}}
			share := w[0] / (w[0] + w[1])
			first := 0
			for i := 0; i < flows; i++ {
				p := flowPkt(i)
				got := PickBranch(br, p)
				want := uint32(2)
				if flowU(t, p) < share {
					want = 1
				}
				if got == nil || got.SPI != want {
					t.Fatalf("weights %v, flow %d: picked %+v, want SPI %d", w, i, got, want)
				}
				if PickBranch(br, p) != got {
					t.Fatalf("weights %v, flow %d: a second pick differs", w, i)
				}
				if want == 1 {
					first++
				}
			}
			checkShare(t, "weights", first, flows, share)
		}
	})

	t.Run("zero total weight picks by index", func(t *testing.T) {
		br := []Branch{{SPI: 1}, {Filter: dns, SPI: 9}, {SPI: 2}, {SPI: 3}}
		count := map[uint32]int{}
		for i := 0; i < flows; i++ {
			p := flowPkt(i)
			want := []uint32{1, 2, 3}[int(flowU(t, p)*3)%3]
			if got := PickBranch(br, p); got == nil || got.SPI != want {
				t.Fatalf("flow %d: picked %+v, want SPI %d", i, got, want)
			}
			count[want]++
		}
		for spi := uint32(1); spi <= 3; spi++ {
			checkShare(t, "uniform", count[spi], flows, 1.0/3)
		}
	})

	t.Run("only filtered, none matching", func(t *testing.T) {
		br := []Branch{{Filter: dns, SPI: 1}, {Filter: MustCompile("ip.proto == 6"), SPI: 2}}
		if got := PickBranch(br, flowPkt(7)); got != nil {
			t.Errorf("picked %+v, want nil", got)
		}
		if got := PickBranch(nil, flowPkt(7)); got != nil {
			t.Errorf("no branches: picked %+v, want nil", got)
		}
	})

	t.Run("no five-tuple hashes to zero", func(t *testing.T) {
		noIP := &packet.Packet{}
		for _, tc := range []struct {
			br   []Branch
			want uint32
		}{
			{[]Branch{{Filter: dns, SPI: 9}, {Weight: 0.01, SPI: 1}, {Weight: 0.99, SPI: 2}}, 1},
			{[]Branch{{Weight: 0, SPI: 1}, {Weight: 1, SPI: 2}}, 2},
			{[]Branch{{Filter: dns, SPI: 9}, {SPI: 1}, {SPI: 2}}, 1},
		} {
			if got := PickBranch(tc.br, noIP); got == nil || got.SPI != tc.want {
				t.Errorf("%+v: picked %+v, want SPI %d", tc.br, got, tc.want)
			}
		}
	})
}

// checkShare fails unless hits of n trials lie within a binomial 4σ of
// share.
func checkShare(t *testing.T, what string, hits, n int, share float64) {
	t.Helper()
	mean := float64(n) * share
	if sigma := math.Sqrt(mean * (1 - share)); math.Abs(float64(hits)-mean) > 4*sigma {
		t.Errorf("%s: %d of %d flows, want %.0f ± %.0f (4σ)", what, hits, n, mean, 4*sigma)
	}
}
