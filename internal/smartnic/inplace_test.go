package smartnic

import (
	"bytes"
	"testing"

	"lemur/internal/bpf"
	"lemur/internal/nf"
	"lemur/internal/nsh"
)

// TestNICProcessFrameInPlaceMatches: the in-place NIC path (header shifts
// over the pooled buffer) must produce byte-identical frames to the
// allocating ProcessFrame across a stream, including the stateful ChaCha NF.
func TestNICProcessFrameInPlaceMatches(t *testing.T) {
	mk := func() *NIC {
		nic := NewNIC(nicSpec())
		chacha, err := nf.New("FastEncrypt", "cc0", nil)
		if err != nil {
			t.Fatal(err)
		}
		prog := SynthesizeNF("chacha", 3600, 256)
		if err := nic.Load(4, 6, &PathProgram{Prog: prog, NFs: []nf.NF{chacha}, AdvanceSI: 1}); err != nil {
			t.Fatal(err)
		}
		return nic
	}
	ref, fast := mk(), mk()
	env := &nf.Env{}
	for i := 0; i < 30; i++ {
		enc, err := nsh.Encap(testFrame(uint16(80+i)), 4, 6)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.ProcessFrame(append([]byte(nil), enc...), env)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fast.ProcessFrameInPlace(append([]byte(nil), enc...), env)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: in-place NIC output diverges", i)
		}
	}
	if ref.InFrames != fast.InFrames {
		t.Fatalf("counter drift: ref %d fast %d", ref.InFrames, fast.InFrames)
	}
}

// TestNICProcessFrameInPlaceXDPDrop: XDP drops behave identically in place.
func TestNICProcessFrameInPlaceXDPDrop(t *testing.T) {
	nic := NewNIC(nicSpec())
	prog, err := CompileFilter("none", bpf.MustCompile("false"))
	if err != nil {
		t.Fatal(err)
	}
	if err := nic.Load(2, 2, &PathProgram{Prog: prog}); err != nil {
		t.Fatal(err)
	}
	enc, _ := nsh.Encap(testFrame(1), 2, 2)
	out, err := nic.ProcessFrameInPlace(enc, &nf.Env{})
	if err != nil || out != nil {
		t.Errorf("out=%v err=%v, want nil drop", out, err)
	}
	if nic.DroppedFrames != 1 {
		t.Errorf("DroppedFrames = %d", nic.DroppedFrames)
	}
}

// TestRunAllocFree: interpreting a program within the eBPF stack limit
// allocates nothing — its stack is a local array and its load widths a
// switch.
func TestRunAllocFree(t *testing.T) {
	prog := SynthesizeNF("stacked", 3600, maxStackBytes)
	if err := Verify(prog, nicSpec()); err != nil {
		t.Fatal(err)
	}
	pkt := testFrame(80)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := Run(prog, pkt); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Run: %v allocs per packet, want 0", allocs)
	}
}
