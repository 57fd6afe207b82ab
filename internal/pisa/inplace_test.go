package pisa

import (
	"bytes"
	"testing"

	"lemur/internal/bpf"
	"lemur/internal/nf"
	"lemur/internal/packet"
)

// mkPair builds two identically configured switches: ingress classification
// with encap toward a server, and a return path that advances + decaps.
func mkPair(t *testing.T) (*Switch, *Switch) {
	t.Helper()
	mk := func() *Switch {
		s := NewSwitch()
		acl, err := nf.New("ACL", "acl0", nf.Params{"allow_dst": "172.16.0.0/12"})
		if err != nil {
			t.Fatal(err)
		}
		fwd, err := nf.New("IPv4Fwd", "fwd0", nil)
		if err != nil {
			t.Fatal(err)
		}
		s.AddClassifierRule(ClassifierRule{Filter: bpf.MustCompile("ip.src in 10.0.0.0/8"), SPI: 7, SI: 10})
		s.SetEntry(7, 10, &PathEntry{
			Apply: []nf.NF{acl}, Encap: true,
			Out: Forward{Kind: ToServer, Target: "nf-server-0"},
		})
		s.SetEntry(7, 8, &PathEntry{
			Apply: []nf.NF{fwd}, Decap: true,
			Out: Forward{Kind: Egress},
		})
		return s
	}
	return mk(), mk()
}

// TestSwitchProcessFrameInPlaceMatches: ingress encap and return-path decap
// must produce the copying processCopy's frames and forward verdicts on the
// in-place path; the oracle never touches its input.
func TestSwitchProcessFrameInPlaceMatches(t *testing.T) {
	ref, fast := mkPair(t)
	env := &nf.Env{}
	for i := 0; i < 20; i++ {
		in := ingressFrame(t, uint16(80+i))

		// Ingress: classify + apply + encap.
		want, wantFwd, err := processCopy(ref, in, env)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(in, ingressFrame(t, uint16(80+i))) {
			t.Fatalf("frame %d: processCopy mutated its input", i)
		}
		// The in-place path needs NSH headroom in cap, like pooled buffers have.
		roomy := make([]byte, len(in), len(in)+packet.NSHLen)
		copy(roomy, in)
		got, gotFwd, err := fast.ProcessFrameInPlace(roomy, env)
		if err != nil {
			t.Fatal(err)
		}
		if gotFwd != wantFwd {
			t.Fatalf("frame %d: fwd %+v, want %+v", i, gotFwd, wantFwd)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: ingress in-place output diverges", i)
		}

		// Return path: advance + decap + egress.
		want2, wantFwd2, err := processCopy(ref, want, env)
		if err != nil {
			t.Fatal(err)
		}
		got2, gotFwd2, err := fast.ProcessFrameInPlace(got, env)
		if err != nil {
			t.Fatal(err)
		}
		if gotFwd2 != wantFwd2 {
			t.Fatalf("frame %d: return fwd %+v, want %+v", i, gotFwd2, wantFwd2)
		}
		if !bytes.Equal(got2, want2) {
			t.Fatalf("frame %d: return-path in-place output diverges", i)
		}
	}
}
