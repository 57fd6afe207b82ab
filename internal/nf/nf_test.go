package nf

import (
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/packet"
)

func env() *Env { return &Env{NowSec: 0, Rand: rand.New(rand.NewSource(1))} }

func udp(src, dst packet.IPv4Addr, sport, dport uint16, payload []byte) *packet.Packet {
	return packet.Builder{Src: src, Dst: dst, SrcPort: sport, DstPort: dport, Payload: payload}.New()
}

func TestRegistryCompleteness(t *testing.T) {
	// Table 3 lists exactly 14 NFs.
	if got := len(Classes()); got != 14 {
		t.Errorf("Classes() = %d, want 14: %v", got, Classes())
	}
	if Registry["BPF"] != Registry["Match"] {
		t.Error("BPF alias missing")
	}
	for _, class := range Classes() {
		m := Registry[class]
		if m.New == nil {
			t.Errorf("%s: no constructor", class)
			continue
		}
		inst, err := m.New("t0", nil)
		if err != nil {
			t.Errorf("%s: constructor failed: %v", class, err)
			continue
		}
		if inst.Class() != class {
			t.Errorf("%s: instance class = %q", class, inst.Class())
		}
		if inst.Name() != "t0" {
			t.Errorf("%s: instance name = %q", class, inst.Name())
		}
		if m.Cycles == nil || m.Cycles(nil) <= 0 {
			t.Errorf("%s: bad cycle cost", class)
		}
		if !m.SupportsPlatform(hw.Server) {
			t.Errorf("%s: every NF has a server implementation in Table 3", class)
		}
		if m.SupportsPlatform(hw.PISA) != (m.PISA != nil) {
			t.Errorf("%s: PISA platform flag and profile disagree", class)
		}
		if m.SupportsPlatform(hw.SmartNIC) != (m.EBPFInstructions > 0) {
			t.Errorf("%s: SmartNIC flag and instruction count disagree", class)
		}
		if m.SupportsPlatform(hw.OpenFlow) != (m.OFTable != "") {
			t.Errorf("%s: OpenFlow flag and table kind disagree", class)
		}
	}
}

func TestTable3Matrix(t *testing.T) {
	// Spot-check the availability matrix against the paper's Table 3.
	wantPISA := map[string]bool{
		"Tunnel": true, "Detunnel": true, "IPv4Fwd": true, "NAT": true,
		"LB": true, "Match": true, "ACL": true,
		"Encrypt": false, "Decrypt": false, "FastEncrypt": false,
		"Dedup": false, "Limiter": false, "UrlFilter": false, "Monitor": false,
	}
	for class, want := range wantPISA {
		if got := Registry[class].SupportsPlatform(hw.PISA); got != want {
			t.Errorf("%s on PISA = %v, want %v", class, got, want)
		}
	}
	wantNIC := map[string]bool{"FastEncrypt": true, "Tunnel": true, "Detunnel": true,
		"IPv4Fwd": true, "LB": true, "Match": true, "ACL": true, "Encrypt": false,
		"Dedup": false, "NAT": false, "Limiter": false, "Monitor": false}
	for class, want := range wantNIC {
		if got := Registry[class].SupportsPlatform(hw.SmartNIC); got != want {
			t.Errorf("%s on SmartNIC = %v, want %v", class, got, want)
		}
	}
	wantOF := map[string]bool{"Tunnel": true, "Detunnel": true, "IPv4Fwd": true,
		"Monitor": true, "ACL": true, "NAT": false, "LB": false, "Match": false}
	for class, want := range wantOF {
		if got := Registry[class].SupportsPlatform(hw.OpenFlow); got != want {
			t.Errorf("%s on OpenFlow = %v, want %v", class, got, want)
		}
	}
	// The two bold (non-replicable) NFs plus the NAT policy.
	for _, class := range []string{"FastEncrypt", "Limiter", "NAT"} {
		if Registry[class].Replicable {
			t.Errorf("%s must be non-replicable", class)
		}
	}
	for _, class := range []string{"Dedup", "ACL", "Encrypt", "Monitor", "LB"} {
		if !Registry[class].Replicable {
			t.Errorf("%s must be replicable", class)
		}
	}
}

func TestCostModelsCalibration(t *testing.T) {
	// Table 4 calibration points (worst-case).
	if c := Registry["ACL"].Cycles(Params{"rules": 1024}); c < 4000 || c > 4016 {
		t.Errorf("ACL(1024) = %v cycles, want ~4008", c)
	}
	if c := Registry["NAT"].Cycles(Params{"entries": 12000}); c < 470 || c > 484 {
		t.Errorf("NAT(12000) = %v cycles, want ~477", c)
	}
	if c := Registry["Encrypt"].Cycles(nil); c != 8777 {
		t.Errorf("Encrypt = %v cycles, want 8777", c)
	}
	if c := Registry["Dedup"].Cycles(nil); c != 30867 {
		t.Errorf("Dedup = %v cycles, want 30867", c)
	}
	// ACL cost grows with table size; NAT with entries.
	if Registry["ACL"].Cycles(Params{"rules": 64}) >= Registry["ACL"].Cycles(Params{"rules": 2048}) {
		t.Error("ACL cost not monotone in rules")
	}
}

func TestNewUnknownClass(t *testing.T) {
	if _, err := New("Quantum", "q0", nil); err == nil {
		t.Error("want error for unknown class")
	}
	if inst, err := New("BPF", "b0", nil); err != nil || inst.Class() != "Match" {
		t.Errorf("BPF alias: %v, %v", inst, err)
	}
}

func TestACLDefaultDeny(t *testing.T) {
	a, err := newACL("acl0", Params{"allow_dst": "10.0.0.0/8"})
	if err != nil {
		t.Fatal(err)
	}
	in := udp(packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{10, 5, 5, 5}, 1, 2, nil)
	a.Process(in, env())
	if in.Drop {
		t.Error("10/8 traffic should pass")
	}
	out := udp(packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{11, 5, 5, 5}, 1, 2, nil)
	a.Process(out, env())
	if !out.Drop {
		t.Error("non-10/8 traffic should be dropped (default deny)")
	}
}

func TestACLRuleOrderAndFields(t *testing.T) {
	a, _ := newACL("acl0", Params{"rules": 0, "allow_dst": "10.0.0.0/8"})
	acl := a.(*acl)
	// Prepend-equivalent: a drop rule for one host inside the allow prefix,
	// matched first because Matches runs in order and we re-add.
	acl.head = append([]rule{{
		DstAddr: packet.IPv4Addr{10, 0, 0, 99}.Uint32(), DstMask: ^uint32(0),
		Proto: packet.IPProtoUDP, DstPort: 53, Drop: true,
	}}, acl.head...)
	blocked := udp(packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{10, 0, 0, 99}, 9, 53, nil)
	a.Process(blocked, env())
	if !blocked.Drop {
		t.Error("specific drop rule should win")
	}
	other := udp(packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{10, 0, 0, 99}, 9, 80, nil)
	a.Process(other, env())
	if other.Drop {
		t.Error("port mismatch should fall through to allow")
	}
}

func TestACLSyntheticRules(t *testing.T) {
	a, _ := newACL("acl0", Params{"rules": 256})
	if got := a.(*acl).NumRules(); got != 256 {
		t.Errorf("NumRules = %d", got)
	}
	// 10.3.x.x is inside synthetic rule space (10.0.0.0..10.0.255.0 /24s
	// cover i<256 => 10.0.i.0/24) — rule i covers 10.<i>>8>.<i&255>.0; for
	// i=3: 10.0.3.0/24.
	p := udp(packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{10, 0, 3, 7}, 1, 2, nil)
	a.Process(p, env())
	if p.Drop {
		t.Error("packet inside synthetic allow rule dropped")
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	e, _ := newEncrypt("e0", nil)
	d, _ := newDecrypt("d0", nil)
	payload := []byte("0123456789abcdef0123456789abcdeftail")
	p := udp(packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{2, 2, 2, 2}, 1, 2, payload)
	orig := append([]byte(nil), p.Payload()...)

	e.Process(p, env())
	enc := append([]byte(nil), p.Payload()...)
	if string(enc[:32]) == string(orig[:32]) {
		t.Error("payload not encrypted")
	}
	if string(enc[32:]) != "tail" {
		t.Error("partial block should pass through clear")
	}
	d.Process(p, env())
	if string(p.Payload()) != string(orig) {
		t.Errorf("decrypt mismatch: %q != %q", p.Payload(), orig)
	}
}

func TestEncryptBadKey(t *testing.T) {
	if _, err := newEncrypt("e0", Params{"key": "short"}); err == nil {
		t.Error("want error for bad key length")
	}
	if _, err := newFastEncrypt("f0", Params{"key": "short"}); err == nil {
		t.Error("want error for bad chacha key length")
	}
}

func TestFastEncryptInvolution(t *testing.T) {
	f, _ := newFastEncrypt("f0", nil)
	payload := make([]byte, 200)
	for i := range payload {
		payload[i] = byte(i)
	}
	p := udp(packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{2, 2, 2, 2}, 7, 8, payload)
	orig := append([]byte(nil), p.Payload()...)
	f.Process(p, env())
	if string(p.Payload()) == string(orig) {
		t.Error("payload not transformed")
	}
	f.Process(p, env()) // stream cipher: second pass restores
	if string(p.Payload()) != string(orig) {
		t.Error("chacha double-application did not restore plaintext")
	}
}

func TestChaChaRFC8439Vector(t *testing.T) {
	// RFC 8439 §2.3.2 test vector: key bytes 00..1f, nonce
	// 000000090000004a00000000, block counter 1.
	var key [8]uint32
	for i := range key {
		key[i] = uint32(4*i) | uint32(4*i+1)<<8 | uint32(4*i+2)<<16 | uint32(4*i+3)<<24
	}
	nonce := [3]uint32{0x09000000, 0x4a000000, 0x00000000}
	var out [64]byte
	chachaBlock(&key, nonce, 1, &out)
	want := "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e" +
		"d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
	if got := hex.EncodeToString(out[:]); got != want {
		t.Fatalf("keystream block\n got %s\nwant %s", got, want)
	}
}

// dedupShims reports, chunk by chunk, whether Dedup rewrote pay's chunk as a
// shim — the 0xDED0DED0 token then the cached chunk's slot ID — and fails
// unless a shim's chunk is zero past its 8 bytes.
func dedupShims(t *testing.T, pay []byte, chunk int) (shims []bool, slots []uint32) {
	t.Helper()
	for off := 0; off+chunk <= len(pay); off += chunk {
		c := pay[off : off+chunk]
		shim := binary.BigEndian.Uint32(c) == 0xDED0DED0
		shims = append(shims, shim)
		if !shim {
			continue
		}
		slots = append(slots, binary.BigEndian.Uint32(c[4:]))
		for i, b := range c[dedupShim:] {
			if b != 0 {
				t.Errorf("chunk at %d: byte %d of a shim's chunk is %#x, want 0", off, dedupShim+i, b)
			}
		}
	}
	return shims, slots
}

func TestDedupRedundancy(t *testing.T) {
	d, _ := newDedup("d0", Params{"chunk": 64})
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i % 64) // four identical 64-byte chunks
	}
	p1 := udp(packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{2, 2, 2, 2}, 1, 2, payload)
	d.Process(p1, env())
	// First packet: chunk 1 is new and passes untouched; chunks 2-4
	// duplicate it and become shims naming its slot, 0.
	shims, slots := dedupShims(t, p1.Payload(), 64)
	if want := []bool{false, true, true, true}; !slices.Equal(shims, want) {
		t.Errorf("first packet: shims %v, want %v", shims, want)
	}
	if !slices.Equal(slots, []uint32{0, 0, 0}) {
		t.Errorf("first packet: shim slots %v, want the first chunk's, 0", slots)
	}
	if string(p1.Payload()[:64]) != string(payload[:64]) {
		t.Error("first packet: the new chunk was rewritten")
	}
	// Second packet: every chunk cached; all four are shims.
	p2 := udp(packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{2, 2, 2, 2}, 1, 2, payload)
	d.Process(p2, env())
	if shims, _ := dedupShims(t, p2.Payload(), 64); !slices.Equal(shims, []bool{true, true, true, true}) {
		t.Errorf("second packet: shims %v, want every chunk", shims)
	}
}

func TestDedupUniquePayloadsPassThrough(t *testing.T) {
	d, _ := newDedup("d0", nil)
	payload := make([]byte, 128)
	for i := range payload {
		payload[i] = byte(i)
	}
	p := udp(packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{2, 2, 2, 2}, 1, 2, payload)
	d.Process(p, env())
	if shims, _ := dedupShims(t, p.Payload(), 64); slices.Contains(shims, true) {
		t.Errorf("unique payload got shims: %v", shims)
	}
	if string(p.Payload()) != string(payload) {
		t.Error("unique payload was rewritten")
	}
}

// TestDedupRejectsShortChunk: a chunk shorter than the 8-byte shim is
// refused by both implementations with an error naming the NF. At 0 the
// chunk loop used to spin forever, below 0 it sliced out of range, and at
// 1-7 the shim overwrote the next chunk.
func TestDedupRejectsShortChunk(t *testing.T) {
	for _, tc := range []struct {
		chunk int
		ok    bool
	}{
		{0, false}, {-8, false}, {1, false}, {7, false}, {8, true}, {64, true},
	} {
		ctors := map[string]func(string, Params) (NF, error){"sharded": newDedup, "reference": newDedupRef}
		for impl, ctor := range ctors {
			d, err := ctor("d7", Params{"chunk": tc.chunk})
			if !tc.ok {
				if err == nil || !strings.Contains(err.Error(), "Dedup d7") {
					t.Errorf("%s chunk=%d: error %v, want one naming Dedup d7", impl, tc.chunk, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s chunk=%d: %v", impl, tc.chunk, err)
			}
			pay := make([]byte, 64)
			for i := 0; i < 2; i++ {
				d.Process(udp(packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{8, 8, 8, 8}, 1, 2, pay), env())
			}
		}
	}
}

func TestTunnelDetunnelRoundTrip(t *testing.T) {
	tn, _ := newTunnel("t0", Params{"vid": 42})
	dt, _ := newDetunnel("dt0", nil)
	p := udp(packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{2, 2, 2, 2}, 1, 2, []byte("x"))
	origLen := len(p.Data)
	tn.Process(p, env())
	if !p.HasVLAN || p.VLAN.VID != 42 {
		t.Fatalf("tag not pushed: %+v", p.VLAN)
	}
	if len(p.Data) != origLen+packet.VLANLen {
		t.Errorf("len = %d, want %d", len(p.Data), origLen+packet.VLANLen)
	}
	// Idempotent: already-tagged frames unchanged.
	tn.Process(p, env())
	if len(p.Data) != origLen+packet.VLANLen {
		t.Error("double tunnel changed frame")
	}
	dt.Process(p, env())
	if p.HasVLAN || len(p.Data) != origLen {
		t.Errorf("tag not popped: vlan=%v len=%d", p.HasVLAN, len(p.Data))
	}
	if !p.HasUDP || string(p.Payload()) != "x" {
		t.Error("inner packet damaged")
	}
	dt.Process(p, env()) // pop on untagged: no-op
	if len(p.Data) != origLen {
		t.Error("detunnel on untagged frame changed it")
	}
}

func TestIPv4FwdLPM(t *testing.T) {
	f, _ := newIPv4Fwd("f0", Params{"default_port": 9})
	fw := f.(*ipv4Fwd)
	if err := fw.AddRoute("10.0.0.0/8", 1, packet.MAC{1}); err != nil {
		t.Fatal(err)
	}
	if err := fw.AddRoute("10.1.0.0/16", 2, packet.MAC{2}); err != nil {
		t.Fatal(err)
	}
	if err := fw.AddRoute("bogus", 3, packet.MAC{3}); err == nil {
		t.Error("want error for bad cidr")
	}
	cases := []struct {
		dst  packet.IPv4Addr
		port int
	}{
		{packet.IPv4Addr{10, 1, 2, 3}, 2}, // longest prefix wins
		{packet.IPv4Addr{10, 9, 9, 9}, 1},
		{packet.IPv4Addr{8, 8, 8, 8}, 9}, // default
	}
	for _, tc := range cases {
		p := udp(packet.IPv4Addr{1, 1, 1, 1}, tc.dst, 1, 2, nil)
		ttl := p.IP.TTL
		f.Process(p, env())
		if p.OutPort != tc.port {
			t.Errorf("dst %v: port = %d, want %d", tc.dst, p.OutPort, tc.port)
		}
		if p.IP.TTL != ttl-1 {
			t.Errorf("dst %v: TTL not decremented", tc.dst)
		}
	}
}

// TestIPv4FwdShorterRouteAddedLater: a lookup visits only the prefix
// lengths that hold a route, longest first, whatever order the routes came
// in: a /8 and a /0 added after a /24 still lose to it, and a /16 added last
// sits between them.
func TestIPv4FwdShorterRouteAddedLater(t *testing.T) {
	f, _ := newIPv4Fwd("f0", Params{"default_port": -1})
	fw := f.(*ipv4Fwd)
	for _, r := range []struct {
		cidr string
		port int
	}{{"10.1.2.0/24", 1}, {"10.0.0.0/8", 2}, {"0.0.0.0/0", 3}, {"10.1.0.0/16", 4}} {
		if err := fw.AddRoute(r.cidr, r.port, packet.MAC{byte(r.port)}); err != nil {
			t.Fatal(err)
		}
	}
	if want := []int{24, 16, 8, 0}; !slices.Equal(fw.lens, want) {
		t.Fatalf("prefix lengths %v, want %v", fw.lens, want)
	}
	for _, tc := range []struct {
		dst  packet.IPv4Addr
		port int
	}{
		{packet.IPv4Addr{10, 1, 2, 3}, 1},
		{packet.IPv4Addr{10, 1, 9, 9}, 4},
		{packet.IPv4Addr{10, 9, 9, 9}, 2},
		{packet.IPv4Addr{8, 8, 8, 8}, 3},
	} {
		p := udp(packet.IPv4Addr{1, 1, 1, 1}, tc.dst, 1, 2, nil)
		f.Process(p, env())
		if p.Drop || p.OutPort != tc.port {
			t.Errorf("dst %v: port = %d (drop %v), want %d", tc.dst, p.OutPort, p.Drop, tc.port)
		}
	}
}

func TestLimiterTokenBucket(t *testing.T) {
	l, _ := newLimiter("l0", Params{"rate_mbps": 1.0, "burst_kbits": 24.0})
	mk := func() *packet.Packet {
		return udp(packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{2, 2, 2, 2}, 1, 2, make([]byte, 1000-packet.EthernetLen-packet.IPv4Len-packet.UDPLen))
	}
	e := &Env{NowSec: 0}
	// burst = 24000 bits = three 1000-byte packets.
	passed := 0
	for i := 0; i < 5; i++ {
		p := mk()
		l.Process(p, e)
		if !p.Drop {
			passed++
		}
	}
	if passed != 3 {
		t.Errorf("burst passed %d packets, want 3", passed)
	}
	// After 8 ms at 1 Mbps, 8000 bits refill: one more packet.
	e.NowSec = 0.008
	p := mk()
	l.Process(p, e)
	if p.Drop {
		t.Error("refilled bucket should pass one packet")
	}
	p = mk()
	l.Process(p, e)
	if !p.Drop {
		t.Error("second packet should exceed refill")
	}
}

func TestUrlFilter(t *testing.T) {
	u, _ := newUrlFilter("u0", Params{"block": []string{"evil.test"}})
	mk := func(payload string) *packet.Packet {
		return packet.Builder{
			Src: packet.IPv4Addr{1, 1, 1, 1}, Dst: packet.IPv4Addr{2, 2, 2, 2},
			Proto: packet.IPProtoTCP, SrcPort: 1000, DstPort: 80,
			Payload: []byte(payload),
		}.New()
	}
	bad := mk("GET /index.html HTTP/1.1\r\nHost: evil.test\r\n\r\n")
	u.Process(bad, env())
	if !bad.Drop {
		t.Error("blocked host should drop")
	}
	good := mk("GET / HTTP/1.1\r\nHost: good.test\r\n\r\n")
	u.Process(good, env())
	if good.Drop {
		t.Error("clean host dropped")
	}
	nonHTTP := mk("\x00\x01binarygarbage evil.test")
	u.Process(nonHTTP, env())
	if nonHTTP.Drop {
		t.Error("non-HTTP traffic should pass even containing the blocked string")
	}
}

func TestMonitorCounters(t *testing.T) {
	m, _ := newMonitor("m0", nil)
	mon := m.(*Monitor)
	p := udp(packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{2, 2, 2, 2}, 5, 6, []byte("abc"))
	e := &Env{NowSec: 1.5}
	m.Process(p, e)
	e.NowSec = 2.5
	m.Process(p, e)
	tu, _ := p.Tuple()
	st := mon.Stats(tu)
	if st == nil || st.Packets != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Bytes != 2*uint64(len(p.Data)) {
		t.Errorf("bytes = %d", st.Bytes)
	}
	if st.FirstSec != 1.5 || st.LastSec != 2.5 {
		t.Errorf("times = %v..%v", st.FirstSec, st.LastSec)
	}
	if mon.NumFlows() != 1 {
		t.Errorf("flows = %d", mon.NumFlows())
	}
}

func TestMonitorEviction(t *testing.T) {
	m, _ := newMonitor("m0", Params{"max_flows": 2})
	mon := m.(*Monitor)
	for i := 0; i < 4; i++ {
		p := udp(packet.IPv4Addr{1, 1, 1, byte(i)}, packet.IPv4Addr{2, 2, 2, 2}, uint16(i), 6, nil)
		m.Process(p, env())
	}
	if mon.NumFlows() > 2 {
		t.Errorf("flows = %d, want <= 2", mon.NumFlows())
	}
	if mon.Evicted != 2 {
		t.Errorf("Evicted = %d, want 2", mon.Evicted)
	}
}

func TestNATTranslation(t *testing.T) {
	n, _ := newNAT("n0", Params{"entries": 100})
	nat := n.(*NAT)
	// Outbound: internal 10.0.0.5:1234 -> 8.8.8.8:53
	p := udp(packet.IPv4Addr{10, 0, 0, 5}, packet.IPv4Addr{8, 8, 8, 8}, 1234, 53, nil)
	n.Process(p, env())
	if p.Drop {
		t.Fatal("outbound dropped")
	}
	if p.IP.Src != (packet.IPv4Addr{203, 0, 113, 1}) {
		t.Fatalf("src not translated: %v", p.IP.Src)
	}
	extPort := p.UDP.SrcPort
	if extPort < 20000 {
		t.Fatalf("ext port = %d", extPort)
	}
	if nat.Entries() != 1 {
		t.Errorf("entries = %d", nat.Entries())
	}
	// Same flow again: same mapping.
	p2 := udp(packet.IPv4Addr{10, 0, 0, 5}, packet.IPv4Addr{8, 8, 8, 8}, 1234, 53, nil)
	n.Process(p2, env())
	if p2.UDP.SrcPort != extPort {
		t.Error("mapping not stable")
	}
	// Return traffic to the external port maps back.
	ret := udp(packet.IPv4Addr{8, 8, 8, 8}, packet.IPv4Addr{203, 0, 113, 1}, 53, extPort, nil)
	n.Process(ret, env())
	if ret.Drop || ret.IP.Dst != (packet.IPv4Addr{10, 0, 0, 5}) || ret.UDP.DstPort != 1234 {
		t.Errorf("return translation wrong: %v:%d drop=%v", ret.IP.Dst, ret.UDP.DstPort, ret.Drop)
	}
	// Unknown inbound port: dropped.
	bogus := udp(packet.IPv4Addr{8, 8, 8, 8}, packet.IPv4Addr{203, 0, 113, 1}, 53, 19999, nil)
	n.Process(bogus, env())
	if !bogus.Drop {
		t.Error("unsolicited inbound should drop")
	}
	// Wire bytes updated (SyncHeaders called): re-decode and compare.
	var q packet.Packet
	if err := q.Decode(p.Data); err != nil {
		t.Fatal(err)
	}
	if q.IP.Src != (packet.IPv4Addr{203, 0, 113, 1}) || !q.VerifyIPChecksum() {
		t.Error("translation not serialized to wire bytes")
	}
}

func TestNATExhaustion(t *testing.T) {
	n, _ := newNAT("n0", Params{"entries": 3})
	nat := n.(*NAT)
	for i := 0; i < 5; i++ {
		p := udp(packet.IPv4Addr{10, 0, 0, byte(i + 1)}, packet.IPv4Addr{8, 8, 8, 8}, 1000, 53, nil)
		n.Process(p, env())
		if i < 3 && p.Drop {
			t.Errorf("flow %d dropped before exhaustion", i)
		}
		if i >= 3 && !p.Drop {
			t.Errorf("flow %d passed after exhaustion", i)
		}
	}
	if nat.Exhausted != 2 {
		t.Errorf("Exhausted = %d, want 2", nat.Exhausted)
	}
}

func TestLBAffinity(t *testing.T) {
	l, _ := newLB("lb0", Params{"n_backends": 4})
	lb := l.(*LB)
	p := udp(packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{9, 9, 9, 9}, 333, 80, nil)
	tu, _ := p.Tuple()
	want := lb.Backend(tu)
	l.Process(p, env())
	if p.IP.Dst != want {
		t.Errorf("dst = %v, want %v", p.IP.Dst, want)
	}
	// Distribution: many flows should hit more than one backend.
	seen := map[packet.IPv4Addr]bool{}
	for i := 0; i < 64; i++ {
		q := udp(packet.IPv4Addr{1, 1, 1, byte(i)}, packet.IPv4Addr{9, 9, 9, 9}, uint16(1000+i), 80, nil)
		l.Process(q, env())
		seen[q.IP.Dst] = true
	}
	if len(seen) < 3 {
		t.Errorf("64 flows hit only %d backends", len(seen))
	}
}

func TestLBExplicitBackends(t *testing.T) {
	l, err := newLB("lb0", Params{"backends": []string{"10.0.0.1", "10.0.0.2"}})
	if err != nil {
		t.Fatal(err)
	}
	p := udp(packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{9, 9, 9, 9}, 1, 2, nil)
	l.Process(p, env())
	if p.IP.Dst != (packet.IPv4Addr{10, 0, 0, 1}) && p.IP.Dst != (packet.IPv4Addr{10, 0, 0, 2}) {
		t.Errorf("dst = %v", p.IP.Dst)
	}
	if _, err := newLB("lb1", Params{"backends": []string{"zzz"}}); err == nil {
		t.Error("want error for bad backend")
	}
	if _, err := newLB("lb2", Params{"n_backends": 0}); err == nil {
		t.Error("want error for zero backends")
	}
}

func TestMatchTagAndGate(t *testing.T) {
	m, _ := newMatch("m0", Params{"filter": "udp.dport == 53", "class": 7})
	p := udp(packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{2, 2, 2, 2}, 1, 53, nil)
	m.Process(p, env())
	if p.TrafficClass != 7 || p.Drop {
		t.Errorf("tag mode wrong: class=%d drop=%v", p.TrafficClass, p.Drop)
	}
	miss := udp(packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{2, 2, 2, 2}, 1, 80, nil)
	m.Process(miss, env())
	if miss.Drop || miss.TrafficClass != 0 {
		t.Error("tag mode should not drop misses")
	}
	g, _ := newMatch("g0", Params{"filter": "udp.dport == 53", "gate": 1})
	m2 := udp(packet.IPv4Addr{1, 1, 1, 1}, packet.IPv4Addr{2, 2, 2, 2}, 1, 80, nil)
	g.Process(m2, env())
	if !m2.Drop {
		t.Error("gate mode should drop misses")
	}
	if _, err := newMatch("bad", Params{"filter": "garbage ==="}); err == nil {
		t.Error("want error for bad filter")
	}
}

func BenchmarkNFProcess(b *testing.B) {
	payload := make([]byte, 1400)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	for _, class := range []string{"ACL", "Encrypt", "Decrypt", "FastEncrypt", "Dedup", "NAT", "LB", "Match", "IPv4Fwd"} {
		inst, err := New(class, "b0", nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(class, func(b *testing.B) {
			e := env()
			p := udp(packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{10, 0, 1, 2}, 4000, 80, payload)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Drop = false
				inst.Process(p, e)
			}
		})
	}
}
