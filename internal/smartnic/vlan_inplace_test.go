package smartnic

import (
	"bytes"
	"fmt"
	"testing"

	"lemur/internal/nf"
	"lemur/internal/nsh"
	"lemur/internal/packet"
)

// TestNICVLANInPlaceMatches: a NIC hop whose NFs push or pop a VLAN tag
// emits on the in-place path exactly the bytes of the copying processCopy,
// and stays in the caller's buffer whenever the frame never outgrows its
// arrival length or the buffer has tail room for the tag.
func TestNICVLANInPlaceMatches(t *testing.T) {
	cases := []struct {
		name    string
		classes []string
		vid     uint16 // tag on the arriving frame, 0 for none
		grows   bool   // the frame is at some point longer than it arrived
	}{
		{"push", []string{"Tunnel"}, 0, true},
		{"pop/untagged", []string{"Detunnel"}, 0, false},
		{"pop/tagged", []string{"Detunnel"}, 42, false},
		{"push/tagged", []string{"Tunnel"}, 42, false},
		{"push-pop", []string{"Tunnel", "FastEncrypt", "Detunnel"}, 0, true},
		{"pop-push/tagged", []string{"Detunnel", "FastEncrypt", "Tunnel"}, 42, false},
	}
	for _, tc := range cases {
		for _, room := range []int{0, packet.VLANLen} {
			t.Run(fmt.Sprintf("%s/room=%d", tc.name, room), func(t *testing.T) {
				mk := func() *NIC {
					nic := NewNIC(nicSpec())
					pp := &PathProgram{Prog: SynthesizeNF("vlan", 64, 64), AdvanceSI: 1}
					for i, c := range tc.classes {
						inst, err := nf.New(c, fmt.Sprintf("%s%d", c, i), nil)
						if err != nil {
							t.Fatal(err)
						}
						pp.NFs = append(pp.NFs, inst)
					}
					if err := nic.Load(4, 6, pp); err != nil {
						t.Fatal(err)
					}
					return nic
				}
				ref, fast := mk(), mk()
				env := &nf.Env{}
				for i := 0; i < 20; i++ {
					in, err := nsh.Encap(packet.Builder{
						Src: packet.IPv4Addr{10, 1, 2, 3}, Dst: packet.IPv4Addr{172, 16, 5, 6},
						SrcPort: 3333, DstPort: uint16(80 + i), Proto: packet.IPProtoTCP,
						VLANID: tc.vid, Payload: make([]byte, 64),
					}.Build(), 4, 6)
					if err != nil {
						t.Fatal(err)
					}
					want, err := processCopy(ref, in, env)
					if err != nil {
						t.Fatal(err)
					}
					buf := make([]byte, len(in), len(in)+room)
					copy(buf, in)
					got, err := fast.ProcessFrameInPlace(buf, env)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("frame %d: in-place NIC output diverges:\n want %x\n got  %x", i, want, got)
					}
					if (room > 0 || !tc.grows) && &got[0] != &buf[0] {
						t.Fatalf("frame %d: hop left the caller's buffer (len %d -> %d, tail room %d)", i, len(in), len(got), room)
					}
				}
			})
		}
	}
}
