package nf

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"lemur/internal/packet"
)

// The allocating VLAN push and pop the NFs shipped with before they worked
// in the caller's buffer, kept as the byte oracle for FuzzVLANInPlace: build
// the output in a fresh buffer, never touch the input.

func refTunnel(vid uint16, p *packet.Packet) {
	if p.HasVLAN || len(p.Data) < packet.EthernetLen {
		return
	}
	out := make([]byte, len(p.Data)+packet.VLANLen)
	copy(out, p.Data[:12])
	binary.BigEndian.PutUint16(out[12:14], packet.EtherTypeVLAN)
	binary.BigEndian.PutUint16(out[14:16], vid&0x0FFF)
	binary.BigEndian.PutUint16(out[16:18], p.Eth.EtherType)
	copy(out[18:], p.Data[packet.EthernetLen:])
	reDecode(p, out)
}

func refDetunnel(p *packet.Packet) {
	if !p.HasVLAN {
		return
	}
	out := make([]byte, len(p.Data)-packet.VLANLen)
	copy(out, p.Data[:12])
	binary.BigEndian.PutUint16(out[12:14], p.VLAN.EtherType)
	copy(out[packet.EthernetLen:], p.Data[packet.EthernetLen+packet.VLANLen:])
	reDecode(p, out)
}

// FuzzVLANInPlace: on arbitrary frames with arbitrary spare capacity, the
// in-place push and pop leave the packet — bytes, decoded views and metadata
// — exactly as the allocating reference does; they stay in the caller's
// buffer whenever it has room; and push then pop restores an untagged input.
func FuzzVLANInPlace(f *testing.F) {
	plain := packet.Builder{
		Src: packet.IPv4Addr{10, 0, 0, 1}, Dst: packet.IPv4Addr{172, 16, 0, 1},
		SrcPort: 4000, DstPort: 80, Payload: []byte("payload"),
	}
	tagged := plain
	tagged.VLANID = 42
	f.Add(plain.Build(), uint8(packet.VLANLen), uint16(100))
	f.Add(plain.Build(), uint8(0), uint16(4095))
	f.Add(tagged.Build(), uint8(packet.TailRoom), uint16(7))
	f.Add(tagged.Build()[:17], uint8(3), uint16(0xFFFF))
	f.Add([]byte{}, uint8(9), uint16(1))

	f.Fuzz(func(t *testing.T, frame []byte, room uint8, vid uint16) {
		tn, _ := NewTunnel("t0", Params{"vid": int(vid)})
		dt, _ := NewDetunnel("d0", nil)

		// same compares a packet processed in place with the reference's.
		same := func(step string, got, want *packet.Packet) {
			t.Helper()
			if !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("%s: bytes differ:\n want %x\n got  %x", step, want.Data, got.Data)
			}
			g, w := *got, *want
			g.Data, w.Data = nil, nil
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: decoded packet differs:\n want %+v\n got  %+v", step, w, g)
			}
		}
		for _, order := range []string{"push-pop", "pop-push"} {
			buf := make([]byte, len(frame), len(frame)+int(room))
			copy(buf, frame)
			var got, want packet.Packet
			gerr, werr := got.Decode(buf), want.Decode(append([]byte(nil), frame...))
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("decode disagrees with itself: %v vs %v", gerr, werr)
			}
			if gerr != nil {
				return // NFs only ever see frames a device decoded
			}
			got.TrafficClass, want.TrafficClass = 7, 7
			untagged := !got.HasVLAN

			push := func() {
				fits := !got.HasVLAN && cap(got.Data) >= len(got.Data)+packet.VLANLen
				tn.Process(&got, nil)
				refTunnel(vid, &want)
				same(order+": push", &got, &want)
				if fits && &got.Data[0] != &buf[0] {
					t.Fatalf("%s: push left a buffer with room for the tag", order)
				}
			}
			pop := func() {
				base := &got.Data[0]
				dt.Process(&got, nil)
				refDetunnel(&want)
				same(order+": pop", &got, &want)
				if &got.Data[0] != base {
					t.Fatalf("%s: pop left its buffer", order)
				}
			}
			if order == "push-pop" {
				push()
				pop()
				if untagged && !got.Drop && !bytes.Equal(got.Data, frame) {
					t.Fatalf("push then pop did not restore the input:\n in  %x\n out %x", frame, got.Data)
				}
			} else {
				pop()
				push()
			}
		}
	})
}
