package nf

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"lemur/internal/packet"
)

// payloadParams are constructor params that make a class's verdict vary
// over payloadFrames' flows; a class not listed takes its defaults.
var payloadParams = map[string]Params{
	"ACL":   {"allow_dst": "172.16.0.0/13"},
	"Match": {"filter": "ip.src in 10.0.0.0/9", "gate": 1, "class": 3},
	"NAT":   {"entries": 64},
}

// tableCount is a stateful NF's table occupancy, 0 for the others.
func tableCount(n NF) int {
	switch v := n.(type) {
	case *NAT:
		return v.out.count()
	case *Monitor:
		return v.flows.count()
	case *Dedup:
		return v.cache.count()
	case *LB:
		if v.affinity != nil {
			return v.affinity.count()
		}
	}
	return 0
}

// payloadFrames returns n frame pairs that differ only in payload: flows
// from a small pool (so state tables see hits and inserts), TCP and UDP,
// lengths from empty to a full frame, and payloads that are random, HTTP
// heads naming the default-blocked host, or one chunk repeated.
func payloadFrames(n int) (a, b [][]byte) {
	rng := rand.New(rand.NewSource(5))
	pay := func(size int) []byte {
		p := make([]byte, size)
		switch rng.Intn(3) {
		case 0:
			rng.Read(p)
		case 1:
			copy(p, "GET / HTTP/1.1\r\nHost: blocked.example\r\n\r\n")
		case 2:
			for i := range p {
				p[i] = byte(i % 64)
			}
		}
		return p
	}
	for i := 0; i < n; i++ {
		bld := packet.Builder{
			Src:     packet.IPv4Addr{10, byte(rng.Intn(2) * 128), 0, byte(rng.Intn(8))},
			Dst:     packet.IPv4Addr{172, byte(16 + rng.Intn(16)), 0, 1},
			SrcPort: uint16(1024 + rng.Intn(4)), DstPort: 80,
		}
		if rng.Intn(2) == 0 {
			bld.Proto = packet.IPProtoTCP
		}
		size := rng.Intn(1460)
		bld.Payload = pay(size)
		a = append(a, bld.Build())
		bld.Payload = pay(size)
		b = append(b, bld.Build())
	}
	return a, b
}

// verdict is what a payload-blind NF's output may depend on: everything
// but the payload bytes.
type verdict struct {
	drop       bool
	class      uint32
	port       int
	length     int
	payloadOff int
	headers    string
	table      int
}

func run(t *testing.T, n NF, frame []byte, env *Env) (verdict, *packet.Packet) {
	t.Helper()
	var p packet.Packet
	if err := p.Decode(append([]byte(nil), frame...)); err != nil {
		t.Fatal(err)
	}
	n.Process(&p, env)
	p.SyncHeaders()
	return verdict{p.Drop, p.TrafficClass, p.OutPort, len(p.Data), p.PayloadOff,
		fmt.Sprintf("%x", p.Data[:p.PayloadOff]), tableCount(n)}, &p
}

// TestPayloadBlindClasses: for every class without ReadsPayload, two fresh
// instances fed frames that differ only in payload give the same drops,
// traffic classes, output ports, headers, lengths and table counts frame
// for frame — what lets the simulator leave those chains' payloads
// unwritten.
func TestPayloadBlindClasses(t *testing.T) {
	a, b := payloadFrames(200)
	blind := 0
	for _, class := range Classes() {
		if Registry[class].ReadsPayload {
			continue
		}
		blind++
		na, err := New(class, "pa", payloadParams[class])
		if err != nil {
			t.Fatal(err)
		}
		nb, _ := New(class, "pb", payloadParams[class])
		ea, eb := &Env{}, &Env{}
		for i := range a {
			ea.NowSec, eb.NowSec = float64(i)*1e-4, float64(i)*1e-4
			va, _ := run(t, na, a[i], ea)
			vb, _ := run(t, nb, b[i], eb)
			if va != vb {
				t.Fatalf("%s: frame %d: payload changed the output:\n %+v\n %+v", class, i, va, vb)
			}
		}
	}
	if blind == 0 {
		t.Fatal("no payload-blind class in the registry")
	}
}

// TestPayloadReadingClasses: every ReadsPayload class has a frame pair,
// differing only in payload, whose outputs show it read the payload: a
// different verdict, or payloads that differ and are not the input's.
func TestPayloadReadingClasses(t *testing.T) {
	seq := make([]byte, 256)
	for i := range seq {
		seq[i] = byte(i)
	}
	flipped := append([]byte(nil), seq...)
	flipped[100] ^= 0xff
	chunked := make([]byte, 256)
	for i := range chunked {
		chunked[i] = byte(i % 64)
	}
	pairs := map[string][2][]byte{
		"Encrypt":     {seq, flipped},
		"Decrypt":     {seq, flipped},
		"FastEncrypt": {seq, flipped},
		"Dedup":       {seq, chunked},
		"UrlFilter": {
			[]byte("GET / HTTP/1.1\r\nHost: blocked.example\r\n\r\n"),
			[]byte("GET / HTTP/1.1\r\nHost: allowed.example\r\n\r\n"),
		},
	}
	for _, class := range Classes() {
		if !Registry[class].ReadsPayload {
			continue
		}
		pair, ok := pairs[class]
		if !ok {
			t.Errorf("%s reads the payload but has no frame pair here", class)
			continue
		}
		var v [2]verdict
		var out [2][]byte
		for k, pay := range pair {
			n, err := New(class, "pr", nil)
			if err != nil {
				t.Fatal(err)
			}
			frame := packet.Builder{
				Src: packet.IPv4Addr{10, 0, 0, 1}, Dst: packet.IPv4Addr{172, 16, 0, 1},
				Proto: packet.IPProtoTCP, SrcPort: 1000, DstPort: 80, Payload: pay,
			}.Build()
			var p *packet.Packet
			v[k], p = run(t, n, frame, &Env{})
			out[k] = p.Payload()
		}
		transformed := !bytes.Equal(out[0], out[1]) && !bytes.Equal(out[0], pair[0])
		if v[0] == v[1] && !transformed {
			t.Errorf("%s: the frame pair's outputs do not show the payload read: %+v, payload kept", class, v[0])
		}
	}
}
