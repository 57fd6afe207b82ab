package bpf

import (
	"testing"
	"testing/quick"

	"lemur/internal/packet"
)

func pkt(src, dst packet.IPv4Addr, proto uint8, sport, dport uint16) *packet.Packet {
	return packet.Builder{Src: src, Dst: dst, Proto: proto, SrcPort: sport, DstPort: dport}.New()
}

func TestCompileAndMatch(t *testing.T) {
	p := pkt(packet.IPv4Addr{10, 1, 2, 3}, packet.IPv4Addr{192, 168, 0, 1},
		packet.IPProtoTCP, 4000, 443)
	cases := []struct {
		expr string
		want bool
	}{
		{"ip.src in 10.0.0.0/8", true},
		{"ip.src in 10.1.0.0/16", true},
		{"ip.src in 11.0.0.0/8", false},
		{"ip.dst == 192.168.0.1", true},
		{"ip.dst != 192.168.0.1", false},
		{"tcp.dport == 443", true},
		{"tcp.dport == 80 || tcp.dport == 443", true},
		{"tcp.dport == 80 && tcp.dport == 443", false},
		{"ip.proto == 6", true},
		{"ip.proto == 17", false},
		{"!(ip.proto == 17)", true},
		{"port.src >= 1024", true},
		{"port.src < 1024", false},
		{"port.src <= 4000 && port.src >= 4000", true},
		{"true", true},
		{"false", false},
		{"ip.src in 10.0.0.0/8 && (tcp.dport == 443 || tcp.dport == 80)", true},
		{"vlan.vid == 5", false}, // no VLAN layer: comparisons on absent layers are false
	}
	for _, tc := range cases {
		f, err := Compile(tc.expr)
		if err != nil {
			t.Errorf("Compile(%q): %v", tc.expr, err)
			continue
		}
		if got := f.Match(p); got != tc.want {
			t.Errorf("%q = %v, want %v", tc.expr, got, tc.want)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"",
		"ip.src",
		"ip.src ==",
		"ip.src = 10.0.0.1",
		"nosuch.field == 1",
		"ip.src in 10.0.0.1",         // 'in' needs CIDR
		"tcp.dport in 10.0.0.0/8",    // 'in' needs IP field
		"ip.src in 10.0.0.0/33",      // bad prefix
		"(ip.proto == 6",             // unbalanced paren
		"ip.proto == 6 extra",        // trailing
		"ip.proto & 6",               // single &
		"ip.src == 10.0.0",           // malformed IP
		"ip.dst == 10.0.0.1.2",       // too many octets
		"ip.proto == 99999999999999", // overflow
	}
	for _, expr := range bad {
		if _, err := Compile(expr); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", expr)
		}
	}
}

func TestVLANMatch(t *testing.T) {
	p := packet.Builder{
		VLANID: 100,
		Src:    packet.IPv4Addr{1, 1, 1, 1}, Dst: packet.IPv4Addr{2, 2, 2, 2},
	}.New()
	if !MustCompile("vlan.vid == 100").Match(p) {
		t.Error("vlan.vid == 100 should match")
	}
	if MustCompile("vlan.vid == 101").Match(p) {
		t.Error("vlan.vid == 101 should not match")
	}
}

func TestUDPPortAlias(t *testing.T) {
	p := pkt(packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{2, 2, 2, 2}, packet.IPProtoUDP, 5353, 53)
	if !MustCompile("udp.dport == 53").Match(p) {
		t.Error("udp.dport == 53 should match")
	}
	if !MustCompile("port.dst == 53").Match(p) {
		t.Error("port.dst == 53 should match")
	}
}

func TestCIDRMatchProperty(t *testing.T) {
	// For any address and prefix, an address always matches a CIDR built
	// from its own prefix.
	f := func(addr uint32, bits uint8) bool {
		b := int(bits % 33)
		mask := MaskBits(b)
		network := addr & mask
		na := packet.AddrFromUint32(network)
		expr := "ip.src in " + na.String() + "/" + itoa(b)
		flt, err := Compile(expr)
		if err != nil {
			return false
		}
		p := pkt(packet.AddrFromUint32(addr), packet.IPv4Addr{1, 1, 1, 1}, packet.IPProtoUDP, 1, 1)
		return flt.Match(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [3]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func TestDeMorganProperty(t *testing.T) {
	// !(a && b) must equal (!a || !b) over random packets.
	fa := MustCompile("!(ip.proto == 6 && port.dst == 80)")
	fb := MustCompile("!(ip.proto == 6) || !(port.dst == 80)")
	f := func(proto bool, dport uint16) bool {
		pr := packet.IPProtoUDP
		if proto {
			pr = packet.IPProtoTCP
		}
		p := pkt(packet.IPv4Addr{1, 2, 3, 4}, packet.IPv4Addr{4, 3, 2, 1}, pr, 1000, dport)
		return fa.Match(p) == fb.Match(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkMatch(b *testing.B) {
	f := MustCompile("ip.src in 10.0.0.0/8 && (tcp.dport == 443 || tcp.dport == 80)")
	p := pkt(packet.IPv4Addr{10, 1, 2, 3}, packet.IPv4Addr{192, 168, 0, 1}, packet.IPProtoTCP, 4000, 443)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !f.Match(p) {
			b.Fatal("no match")
		}
	}
}
