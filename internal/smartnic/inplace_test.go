package smartnic

import (
	"bytes"
	"testing"

	"lemur/internal/nf"
	"lemur/internal/nsh"
)

// TestNICProcessFrameInPlaceMatches: the in-place NIC hop (header shifts
// over the pooled buffer) must produce byte-identical frames to the copying
// processCopy across a stream, including the stateful ChaCha NF; the oracle
// never touches its input.
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
		enc, err := nsh.EncapInPlace(testFrame(uint16(80+i)), 4, 6)
		if err != nil {
			t.Fatal(err)
		}
		orig := append([]byte(nil), enc...)
		want, err := processCopy(ref, enc, env)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, orig) {
			t.Fatalf("frame %d: processCopy mutated its input", i)
		}
		got, err := fast.ProcessFrameInPlace(append([]byte(nil), enc...), env)
		if err != nil {
			t.Fatal(err)
		}
		if got == nil || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: in-place NIC output diverges or was dropped", i)
		}
	}
}

// TestNICProcessFrameInPlaceXDPDrop: an XDP drop is a nil frame and no
// error.
func TestNICProcessFrameInPlaceXDPDrop(t *testing.T) {
	nic := NewNIC(nicSpec())
	prog := &Program{Name: "drop", Insns: []insn{{Op: opMovImm, Dst: 0, Imm: xdpDrop}, {Op: opExit}}}
	if err := nic.Load(2, 2, &PathProgram{Prog: prog}); err != nil {
		t.Fatal(err)
	}
	enc, _ := nsh.EncapInPlace(testFrame(1), 2, 2)
	out, err := nic.ProcessFrameInPlace(enc, &nf.Env{})
	if err != nil || out != nil {
		t.Errorf("out=%v err=%v, want nil drop", out, err)
	}
}

// TestRunAllocFree: interpreting a program within the eBPF stack limit
// allocates nothing — its stack is a local array and its load widths a
// switch.
func TestRunAllocFree(t *testing.T) {
	prog := SynthesizeNF("stacked", 3600, maxStackBytes)
	if err := verify(prog, nicSpec()); err != nil {
		t.Fatal(err)
	}
	pkt := testFrame(80)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := run(prog, pkt); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Run: %v allocs per packet, want 0", allocs)
	}
}
