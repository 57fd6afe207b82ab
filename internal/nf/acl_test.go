package nf

import (
	"fmt"
	"math/rand"
	"testing"

	"lemur/internal/packet"
)

// aclCIDRs are the allow_dst prefixes the ACL comparisons draw from: one
// outside the synthetic space, ones on it and across it, and a bad one.
var aclCIDRs = []string{"172.16.0.0/12", "10.0.0.0/8", "11.0.0.0/8", "10.1.2.0/24", "26.0.0.0/7", "0.0.0.0/0", "bogus"}

// aclPair builds the same ACL twice: as NewACL's range and as the
// materialised rule list (reference_test.go). Both refuse or neither does.
func aclPair(t testing.TB, params Params) (*ACL, *aclRef) {
	t.Helper()
	got, err := NewACL("acl0", params)
	want, werr := newACLRef("acl0", params)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%v: NewACL error %v, materialised %v", params, err, werr)
	}
	if err != nil {
		return nil, nil
	}
	a := got.(*ACL)
	if a.NumRules() != want.NumRules() {
		t.Fatalf("%v: NumRules %d, materialised %d", params, a.NumRules(), want.NumRules())
	}
	return a, want
}

// aclSame runs p through both ACLs and fails if their verdicts differ.
func aclSame(t testing.TB, got *ACL, want *aclRef, p *packet.Packet, what string) {
	t.Helper()
	p.Drop = false
	got.Process(p, nil)
	g := p.Drop
	p.Drop = false
	want.Process(p, nil)
	if g != p.Drop {
		t.Fatalf("%s: drop %v, materialised %v", what, g, p.Drop)
	}
}

// aclNonIPv4 are frames no rule can match: ARP, IPv6, an IPv4 EtherType
// over a truncated header, and a packet to 10.0.0.5 whose IPv4 header was
// not taken as valid.
func aclNonIPv4() []*packet.Packet {
	unparsed := udp(packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{10, 0, 0, 5}, 1, 2, nil)
	unparsed.HasIPv4 = false
	out := []*packet.Packet{unparsed}
	for _, frame := range [][]byte{
		append(make([]byte, 12), 0x08, 0x06, 0, 1, 8, 0, 6, 4, 0, 1),
		append(make([]byte, 12), 0x86, 0xdd, 0x60, 0, 0, 0, 0, 0, 17, 64),
		append(make([]byte, 12), 0x08, 0x00, 0x45, 0),
	} {
		p := &packet.Packet{}
		_ = p.Decode(frame) // a failed decode leaves HasIPv4 unset
		out = append(out, p)
	}
	return out
}

// synthDst is the destination synthetic rule i was built for, low byte lo.
func synthDst(i int, lo byte) uint32 { return uint32(10)<<24 | uint32(i)<<8 | uint32(lo) }

// TestACLMatchesMaterialised holds the ACL's synthetic range to the rule
// list NewACL used to materialise — verdicts and NumRules — at rule counts
// around 1 024 and around 65 536, where uint32(i)<<8 starts to carry into
// the top byte, with and without allow_dst and a default allow, over
// destinations in 10/8, 11/8, 14/8, 15/8 and 26/8 (which the carry reaches
// at larger counts), rule boundaries, random addresses and non-IPv4 frames.
// Then, at counts up to past 2^24, where indices repeat earlier rules, it
// checks every /24 against the set the rule addresses cover. Under the race
// detector, which makes the rule list's scan take a minute, the counts above
// 1 024 are left to that /24 sweep, so the test's full run is the one
// without -race.
func TestACLMatchesMaterialised(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nonIP := aclNonIPv4()
	for _, n := range []int{0, 1, 64, 1024, 65535, 65536, 65537, 200000} {
		if raceEnabled && n > 1024 {
			continue // the /24 sweep below still covers these counts' range
		}
		for _, allowDst := range []bool{false, true} {
			for _, defAllow := range []bool{false, true} {
				params := Params{"rules": n}
				if allowDst {
					params["allow_dst"] = "172.16.0.0/12"
				}
				if defAllow {
					params["default"] = "allow"
				}
				got, want := aclPair(t, params)
				var dsts []uint32
				for _, i := range []int{0, 1, 255, 256, n - 1, n, n + 1, 65535, 65536, 65537, 131072, 196607, 1 << 20, 1<<24 - 1} {
					dsts = append(dsts, synthDst(i, byte(rng.Intn(256))))
				}
				for _, top := range []uint32{10, 11, 14, 15, 26} {
					for k := 0; k < 16; k++ {
						mid := uint32(rng.Intn(min(n+2, 1<<16)))
						dsts = append(dsts, top<<24|mid<<8|uint32(rng.Intn(256)), top<<24|uint32(rng.Intn(1<<24)))
					}
				}
				for k := 0; k < 32; k++ {
					dsts = append(dsts, rng.Uint32())
				}
				dsts = append(dsts, 172<<24|16<<16|5, 172<<24|32<<16)
				for _, dst := range dsts {
					p := udp(packet.IPv4Addr{1, 1, 1, 1}, packet.AddrFromUint32(dst), 1, 2, nil)
					aclSame(t, got, want, p, fmt.Sprintf("%v dst %08x", params, dst))
				}
				for i, p := range nonIP {
					aclSame(t, got, want, p, fmt.Sprintf("%v non-IPv4 frame %d", params, i))
				}
			}
		}
	}

	// Exhaustive over the /24s: the materialised list's synthetic rules
	// cover exactly the /24s their addresses name.
	covered := make([]uint64, 1<<24/64)
	for _, n := range []int{1024, 65535, 65536, 65537, 200000, 1<<20 + 1, 1<<24 + 3} {
		clear(covered)
		for i := 0; i < n; i++ {
			k := synthDst(i, 0) >> 8
			covered[k/64] |= 1 << (k % 64)
		}
		a := &ACL{synthetic: n}
		for k := uint32(0); k < 1<<24; k++ {
			if want := covered[k/64]>>(k%64)&1 == 1; a.inSynthetic(k<<8) != want {
				t.Fatalf("rules=%d: %d.%d.%d.0/24 in range %v, materialised %v",
					n, k>>16, k>>8&0xff, k&0xff, !want, want)
			}
		}
	}
}

// FuzzACL holds the range to the materialised rule list on arbitrary rule
// counts (below 400 000, so 10/8, 11/8, 14/8 and 15/8 are all reachable),
// parameter sets, destinations and frames. flags: bit 0 sets allow_dst to
// aclCIDRs[flags>>4 % len], bit 1 the default allow, bit 2 leaves rules
// unset (the 1 024 default), bit 3 negates the count.
func FuzzACL(f *testing.F) {
	f.Add(uint32(1024), uint8(0), uint32(0x0a000305), []byte(nil))
	f.Add(uint32(65537), uint8(3), uint32(0x0b000005), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x08, 0x06})
	f.Add(uint32(327681), uint8(0x12), uint32(0x0f000005), []byte(nil))
	f.Add(uint32(5), uint8(0x6d), uint32(0x1a000105), []byte(nil))
	f.Fuzz(func(t *testing.T, n uint32, flags uint8, dst uint32, frame []byte) {
		params := Params{}
		if flags&4 == 0 {
			rules := int(n % 400000)
			if flags&8 != 0 {
				rules = -rules
			}
			params["rules"] = rules
		}
		if flags&1 != 0 {
			params["allow_dst"] = aclCIDRs[int(flags>>4)%len(aclCIDRs)]
		}
		if flags&2 != 0 {
			params["default"] = "allow"
		}
		got, want := aclPair(t, params)
		if got == nil {
			return
		}
		aclSame(t, got, want, udp(packet.IPv4Addr{1, 1, 1, 1}, packet.AddrFromUint32(dst), 1, 2, nil), "dst")
		p := &packet.Packet{}
		_ = p.Decode(frame)
		aclSame(t, got, want, p, "frame")
	})
}
