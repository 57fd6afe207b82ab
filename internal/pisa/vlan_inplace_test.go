package pisa

import (
	"bytes"
	"fmt"
	"testing"

	"lemur/internal/bpf"
	"lemur/internal/nf"
	"lemur/internal/packet"
)

// TestSwitchVLANInPlaceMatches: switch-resident VLAN push and pop, at the
// ingress entry (followed by the NSH encap) and at the return entry
// (followed by the decap), give byte-identical frames on the in-place and
// the allocating path. With packet.TailRoom behind the frame — what
// trafficgen reserves — the frame never leaves its buffer; with less, the
// copying fallbacks of nf.Tunnel and nsh.EncapInPlace take over.
func TestSwitchVLANInPlaceMatches(t *testing.T) {
	cases := []struct {
		name          string
		ingress, back []string
		vid           uint16 // tag on the arriving frame, 0 for none
	}{
		{"push-at-ingress", []string{"Tunnel"}, []string{"IPv4Fwd"}, 0},
		{"push-at-ingress/tagged", []string{"Tunnel"}, []string{"IPv4Fwd"}, 42},
		{"pop-at-ingress/tagged", []string{"Detunnel"}, []string{"IPv4Fwd"}, 42},
		{"push-then-pop", []string{"Tunnel"}, []string{"Detunnel", "IPv4Fwd"}, 0},
		{"pop-then-push/tagged", []string{"Detunnel"}, []string{"Tunnel", "IPv4Fwd"}, 42},
		{"push-on-return", []string{"ACL"}, []string{"Tunnel", "IPv4Fwd"}, 0},
	}
	insts := func(t *testing.T, classes []string) []nf.NF {
		var out []nf.NF
		for i, c := range classes {
			inst, err := nf.New(c, fmt.Sprintf("%s%d", c, i), nf.Params{"allow_dst": "172.16.0.0/12"})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, inst)
		}
		return out
	}
	for _, tc := range cases {
		for _, room := range []int{0, packet.NSHLen, packet.TailRoom} {
			t.Run(fmt.Sprintf("%s/room=%d", tc.name, room), func(t *testing.T) {
				mk := func() *Switch {
					s := NewSwitch(spec())
					s.AddClassifierRule(ClassifierRule{Filter: bpf.MustCompile("ip.src in 10.0.0.0/8"), SPI: 7, SI: 10})
					s.SetEntry(7, 10, &PathEntry{Apply: insts(t, tc.ingress), Encap: true, AdvanceSI: 1,
						Out: Forward{Kind: ToServer, Target: "nf-server-0"}})
					s.SetEntry(7, 9, &PathEntry{Apply: insts(t, tc.back), Decap: true, Out: Forward{Kind: Egress}})
					return s
				}
				ref, fast := mk(), mk()
				env := &nf.Env{}
				for i := 0; i < 10; i++ {
					in := packet.Builder{
						Src: packet.IPv4Addr{10, 0, 0, 1}, Dst: packet.IPv4Addr{172, 16, 0, 9},
						SrcPort: 5555, DstPort: uint16(80 + i), VLANID: tc.vid, Payload: []byte("data"),
					}.Build()
					buf := make([]byte, len(in), len(in)+room)
					copy(buf, in)
					want, got := append([]byte(nil), in...), buf
					for leg := 0; leg < 2; leg++ {
						var wantFwd, gotFwd Forward
						var err error
						if want, wantFwd, err = ref.ProcessFrame(want, env); err != nil {
							t.Fatal(err)
						}
						if got, gotFwd, err = fast.ProcessFrameInPlace(got, env); err != nil {
							t.Fatal(err)
						}
						if gotFwd != wantFwd {
							t.Fatalf("frame %d leg %d: fwd %+v, want %+v", i, leg, gotFwd, wantFwd)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("frame %d leg %d: in-place output diverges:\n want %x\n got  %x", i, leg, want, got)
						}
						if room == packet.TailRoom && &got[0] != &buf[0] {
							t.Fatalf("frame %d leg %d: frame left a buffer with packet.TailRoom behind it", i, leg)
						}
					}
				}
			})
		}
	}
}
