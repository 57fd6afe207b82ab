package packet

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestDecodeUDP(t *testing.T) {
	b := Builder{
		EthSrc:  MAC{0, 1, 2, 3, 4, 5},
		EthDst:  MAC{6, 7, 8, 9, 10, 11},
		Src:     IPv4Addr{10, 0, 0, 1},
		Dst:     IPv4Addr{192, 168, 1, 2},
		SrcPort: 1234,
		DstPort: 53,
		Payload: []byte("hello"),
	}
	p := b.New()
	if !p.HasEth || !p.HasIPv4 || !p.HasUDP || p.HasTCP || p.HasVLAN || p.HasNSH {
		t.Fatalf("layer flags wrong: %+v", p)
	}
	if p.Eth.EtherType != EtherTypeIPv4 {
		t.Errorf("ethertype = %#x, want %#x", p.Eth.EtherType, EtherTypeIPv4)
	}
	if p.IP.Src != b.Src || p.IP.Dst != b.Dst {
		t.Errorf("ips = %v->%v, want %v->%v", p.IP.Src, p.IP.Dst, b.Src, b.Dst)
	}
	if p.UDP.SrcPort != 1234 || p.UDP.DstPort != 53 {
		t.Errorf("ports = %d->%d", p.UDP.SrcPort, p.UDP.DstPort)
	}
	if string(p.Payload()) != "hello" {
		t.Errorf("payload = %q", p.Payload())
	}
	if !p.VerifyIPChecksum() {
		t.Error("checksum invalid on freshly built packet")
	}
}

func TestDecodeTCPWithVLANAndNSH(t *testing.T) {
	b := Builder{
		VLANID:  42,
		NSH:     &NSH{SPI: 0xABCDE, SI: 7, MDType: 2},
		Src:     IPv4Addr{1, 2, 3, 4},
		Dst:     IPv4Addr{5, 6, 7, 8},
		Proto:   IPProtoTCP,
		SrcPort: 4000,
		DstPort: 443,
		Payload: []byte("GET /"),
	}
	p := b.New()
	if !p.HasVLAN || p.VLAN.VID != 42 {
		t.Fatalf("vlan missing or wrong: %+v", p.VLAN)
	}
	if !p.HasNSH || p.NSH.SPI != 0xABCDE || p.NSH.SI != 7 {
		t.Fatalf("nsh wrong: %+v", p.NSH)
	}
	if !p.HasTCP || p.TCP.DstPort != 443 {
		t.Fatalf("tcp wrong: %+v", p.TCP)
	}
	if string(p.Payload()) != "GET /" {
		t.Errorf("payload = %q", p.Payload())
	}
}

func TestDecodeTooShort(t *testing.T) {
	var p Packet
	if err := p.Decode(make([]byte, 5)); err == nil {
		t.Error("want error for 5-byte frame")
	}
	// Valid ethernet claiming IPv4 but truncated.
	frame := Builder{Src: IPv4Addr{1, 1, 1, 1}, Dst: IPv4Addr{2, 2, 2, 2}}.Build()
	if err := p.Decode(frame[:EthernetLen+3]); err == nil {
		t.Error("want error for truncated IPv4")
	}
}

func TestDecodeUnknownEtherType(t *testing.T) {
	frame := make([]byte, 64)
	frame[12], frame[13] = 0x86, 0xDD // IPv6: not decoded, not an error
	var p Packet
	if err := p.Decode(frame); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if p.HasIPv4 || !p.HasEth {
		t.Errorf("flags wrong: %+v", p)
	}
	if p.PayloadOff != EthernetLen {
		t.Errorf("payload off = %d, want %d", p.PayloadOff, EthernetLen)
	}
}

func TestSyncHeadersRewrite(t *testing.T) {
	p := Builder{
		Src: IPv4Addr{10, 0, 0, 1}, Dst: IPv4Addr{10, 0, 0, 2},
		SrcPort: 100, DstPort: 200,
	}.New()
	p.IP.Src = IPv4Addr{172, 16, 0, 9} // NAT-style rewrite
	p.UDP.SrcPort = 61000
	p.SyncHeaders()

	var q Packet
	if err := q.Decode(p.Data); err != nil {
		t.Fatalf("re-decode: %v", err)
	}
	if q.IP.Src != (IPv4Addr{172, 16, 0, 9}) || q.UDP.SrcPort != 61000 {
		t.Errorf("rewrite not serialized: %v %d", q.IP.Src, q.UDP.SrcPort)
	}
	if !q.VerifyIPChecksum() {
		t.Error("checksum not recomputed after rewrite")
	}
}

func TestNSHRoundTripProperty(t *testing.T) {
	f := func(spi uint32, si, ttl uint8) bool {
		spi &= 0xFFFFFF
		ttl &= 0x3F
		if ttl == 0 {
			ttl = 1
		}
		p := Builder{
			NSH: &NSH{SPI: spi, SI: si, TTL: ttl, MDType: 2},
			Src: IPv4Addr{9, 9, 9, 9}, Dst: IPv4Addr{8, 8, 8, 8},
		}.New()
		return p.NSH.SPI == spi && p.NSH.SI == si && p.NSH.TTL == ttl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFiveTupleRoundTripProperty(t *testing.T) {
	f := func(src, dst [4]byte, sp, dp uint16, useTCP bool) bool {
		proto := IPProtoUDP
		if useTCP {
			proto = IPProtoTCP
		}
		p := Builder{
			Src: src, Dst: dst, SrcPort: sp, DstPort: dp, Proto: proto,
		}.New()
		tu, err := p.Tuple()
		if err != nil {
			return false
		}
		want := FiveTuple{Src: src, Dst: dst, SrcPort: sp, DstPort: dp, Proto: proto}
		return tu == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFiveTupleReverse(t *testing.T) {
	tu := FiveTuple{Src: IPv4Addr{1, 2, 3, 4}, Dst: IPv4Addr{5, 6, 7, 8}, SrcPort: 9, DstPort: 10, Proto: 6}
	if got := tu.Reverse().Reverse(); got != tu {
		t.Errorf("double reverse = %v, want %v", got, tu)
	}
	if tu.Reverse().Src != tu.Dst {
		t.Error("reverse did not swap addresses")
	}
}

func TestAddrUint32RoundTripProperty(t *testing.T) {
	f := func(v uint32) bool { return AddrFromUint32(v).Uint32() == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBuilderSerializeDecodeIdentity(t *testing.T) {
	// SyncHeaders over an untouched decode must be a byte-level no-op for
	// the header region.
	b := Builder{
		VLANID: 7, Src: IPv4Addr{1, 1, 1, 1}, Dst: IPv4Addr{2, 2, 2, 2},
		Proto: IPProtoTCP, SrcPort: 1, DstPort: 2, Payload: []byte{0xAA},
	}
	frame := b.Build()
	orig := append([]byte(nil), frame...)
	var p Packet
	if err := p.Decode(frame); err != nil {
		t.Fatal(err)
	}
	p.SyncHeaders()
	if !bytes.Equal(orig, p.Data) {
		t.Errorf("sync of unmodified packet changed bytes:\n%x\n%x", orig, p.Data)
	}
}

func TestResetKeepsCapacity(t *testing.T) {
	p := Builder{Src: IPv4Addr{1, 1, 1, 1}, Dst: IPv4Addr{2, 2, 2, 2}}.New()
	p.Drop = true
	p.TrafficClass = 5
	p.Reset()
	if p.Drop || p.TrafficClass != 0 || p.HasIPv4 {
		t.Errorf("reset incomplete: %+v", p)
	}
	if p.OutPort != -1 {
		t.Errorf("OutPort = %d, want -1", p.OutPort)
	}
}

func BenchmarkDecode(b *testing.B) {
	frame := Builder{
		Src: IPv4Addr{10, 0, 0, 1}, Dst: IPv4Addr{10, 0, 0, 2},
		Proto: IPProtoTCP, SrcPort: 1234, DstPort: 80,
		Payload: make([]byte, 1400),
	}.Build()
	var p Packet
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// hashByteLoop is FiveTuple.Hash as a loop: FNV-1a over the tuple's 13
// bytes, then the avalanche.
func hashByteLoop(t FiveTuple) uint64 {
	h := uint64(14695981039346656037)
	b := append(append(t.Src[:0:0], t.Src[:]...), t.Dst[:]...)
	b = append(b, byte(t.SrcPort>>8), byte(t.SrcPort), byte(t.DstPort>>8), byte(t.DstPort), t.Proto)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// TestFiveTupleHashMatchesByteLoop holds the unrolled hash to the byte
// loop: LB backends, switch and server splits and the state tables' probe
// sequences all follow from it.
func TestFiveTupleHashMatchesByteLoop(t *testing.T) {
	f := func(src, dst [4]byte, sport, dport uint16, proto uint8) bool {
		tu := FiveTuple{Src: src, Dst: dst, SrcPort: sport, DstPort: dport, Proto: proto}
		return tu.Hash() == hashByteLoop(tu)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}
