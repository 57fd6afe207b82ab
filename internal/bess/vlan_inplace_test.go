package bess

import (
	"bytes"
	"fmt"
	"testing"

	"lemur/internal/nf"
	"lemur/internal/nsh"
	"lemur/internal/packet"
)

// vlanCases are the subgroups and arrivals that change a frame's length on
// a server hop: a VLAN push, a pop, both, and a frame that arrives tagged.
// Only a frame that outgrows its arrival length needs tail room to stay in
// its buffer; a push after a pop reuses the bytes the pop freed.
var vlanCases = []struct {
	name    string
	classes []string
	vid     uint16 // tag on the arriving frame, 0 for none
	grows   bool   // the frame is at some point longer than it arrived
}{
	{"push", []string{"Tunnel"}, 0, true},
	{"pop/untagged", []string{"Detunnel"}, 0, false},
	{"pop/tagged", []string{"Detunnel"}, 42, false},
	{"push/tagged", []string{"Tunnel"}, 42, false},
	{"push-pop", []string{"Tunnel", "Limiter", "Detunnel"}, 0, true},
	{"push-pop/tagged", []string{"Tunnel", "Limiter", "Detunnel"}, 42, false},
	{"pop-push/tagged", []string{"Detunnel", "Monitor", "Tunnel"}, 42, false},
}

func vlanEncFrame(t *testing.T, vid, dport uint16) []byte {
	t.Helper()
	out, err := nsh.Encap(packet.Builder{
		Src: packet.IPv4Addr{10, 0, 0, 1}, Dst: packet.IPv4Addr{172, 16, 0, 1},
		SrcPort: 4000, DstPort: dport, VLANID: vid, Payload: []byte("payload-bytes!!!"),
	}.Build(), 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestVLANInPlaceMatches: a hop that changes the frame's length emits on the
// in-place path exactly the bytes of the copying processCopy, with tail room
// (where the frame must stay in the caller's buffer) and without it
// (Tunnel's copying fallback, then nsh.Encap).
func TestVLANInPlaceMatches(t *testing.T) {
	for _, tc := range vlanCases {
		for _, room := range []int{0, packet.VLANLen} {
			t.Run(fmt.Sprintf("%s/room=%d", tc.name, room), func(t *testing.T) {
				mk := func() *Pipeline {
					pl := NewPipeline(server())
					if err := pl.Add(mkSub(t, "sg0", tc.classes...)); err != nil {
						t.Fatal(err)
					}
					return pl
				}
				ref, fast := mk(), mk()
				env := &nf.Env{}
				for i := 0; i < 20; i++ {
					in := vlanEncFrame(t, tc.vid, uint16(80+i%5))
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
						t.Fatalf("frame %d: in-place output diverges from processCopy:\n want %x\n got  %x", i, want, got)
					}
					if (room > 0 || !tc.grows) && &got[0] != &buf[0] {
						t.Fatalf("frame %d: hop left the caller's buffer (len %d -> %d, tail room %d)", i, len(in), len(got), room)
					}
				}
			})
		}
	}
}

// TestVLANHopAllocFree: Tunnel -> Limiter -> Detunnel on a buffer with tail
// room is a server hop with no allocation at all.
func TestVLANHopAllocFree(t *testing.T) {
	pl := NewPipeline(server())
	if err := pl.Add(mkSub(t, "sg0", "Tunnel", "Limiter", "Detunnel")); err != nil {
		t.Fatal(err)
	}
	in := vlanEncFrame(t, 0, 80)
	buf := make([]byte, len(in), len(in)+packet.VLANLen)
	env := &nf.Env{}
	allocs := testing.AllocsPerRun(200, func() {
		env.NowSec += 1e-3 // refill the Limiter's bucket: every frame passes
		copy(buf, in)
		out, err := pl.ProcessFrameInPlace(buf, env)
		if err != nil || out == nil {
			t.Fatalf("out=%v err=%v", out, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Tunnel->Limiter->Detunnel hop: %v allocs per frame, want 0", allocs)
	}
}
