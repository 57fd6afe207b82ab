package packet_test

import (
	"bytes"
	"testing"

	"lemur/internal/nf"
	"lemur/internal/nsh"
	"lemur/internal/packet"
	"lemur/internal/trafficgen"
)

// syncIsIdentity fails unless Decode followed by SyncHeaders leaves frame
// as it was: what lets the switch skip the rewrite when no NF ran.
func syncIsIdentity(t *testing.T, what string, frame []byte) {
	t.Helper()
	want := append([]byte(nil), frame...)
	var p packet.Packet
	if err := p.Decode(frame); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	p.SyncHeaders()
	if !bytes.Equal(frame, want) {
		t.Fatalf("%s: SyncHeaders after Decode rewrote the frame:\n got  %x\n want %x", what, frame, want)
	}
}

// TestDecodeSyncIdentity: on generator frames (UDP and TCP, with payload
// heads and redundant chunks), after an NSH encap, after the matching
// decap, and after each NF class has processed and synced a frame, Decode
// then SyncHeaders writes back exactly the bytes it read.
func TestDecodeSyncIdentity(t *testing.T) {
	cfgs := []trafficgen.Config{
		{Seed: 1},
		{Seed: 2, Proto: packet.IPProtoTCP, Redundancy: 0.5, HTTPShare: 0.5},
		{Seed: 3, Mode: trafficgen.ShortLived, FrameBytes: 200},
	}
	env := &nf.Env{}
	for _, cfg := range cfgs {
		g, err := trafficgen.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			frame := g.NextInto(nil, float64(i)*1e-3)
			syncIsIdentity(t, "generator frame", frame)
			enc, err := nsh.EncapInPlace(frame, uint32(i*977)&0xffffff, uint8(255-i))
			if err != nil {
				t.Fatal(err)
			}
			syncIsIdentity(t, "after encap", enc)
			dec, _, _, err := nsh.DecapInPlace(enc)
			if err != nil {
				t.Fatal(err)
			}
			syncIsIdentity(t, "after decap", dec)
			for _, class := range nf.Classes() {
				n, err := nf.New(class, "s0", nil)
				if err != nil {
					t.Fatal(err)
				}
				var p packet.Packet
				if err := p.Decode(append(make([]byte, 0, len(dec)+packet.TailRoom), dec...)); err != nil {
					t.Fatal(err)
				}
				n.Process(&p, env)
				p.SyncHeaders()
				syncIsIdentity(t, "after "+class, p.Data)
			}
		}
	}
}
