package smartnic

import (
	"errors"
	"testing"

	"lemur/internal/hw"
	"lemur/internal/nf"
	"lemur/internal/nsh"
	"lemur/internal/packet"
)

func nicSpec() *hw.SmartNICSpec {
	return hw.NewPaperTestbed(hw.WithSmartNIC()).SmartNICs[0]
}

func TestVerifierLimits(t *testing.T) {
	spec := nicSpec()
	ok := SynthesizeNF("ok", 100, 64)
	if err := verify(ok, spec); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}
	big := SynthesizeNF("big", 5000, 64)
	if err := verify(big, spec); !errors.Is(err, errTooManyInsns) {
		t.Errorf("oversize: %v", err)
	}
	deep := SynthesizeNF("deep", 100, 1024)
	if err := verify(deep, spec); !errors.Is(err, errStackLimit) {
		t.Errorf("stack: %v", err)
	}
	back := &Program{Insns: []insn{
		{Op: opMovImm, Dst: 0, Imm: 1},
		{Op: opJA, Off: -1},
		{Op: opExit},
	}}
	if err := verify(back, spec); !errors.Is(err, errBackEdge) {
		t.Errorf("back edge: %v", err)
	}
	call := &Program{Insns: []insn{{Op: opCall}, {Op: opExit}}}
	if err := verify(call, spec); !errors.Is(err, errCall) {
		t.Errorf("call: %v", err)
	}
	noExit := &Program{Insns: []insn{{Op: opMovImm, Dst: 0, Imm: 1}}}
	if err := verify(noExit, spec); !errors.Is(err, errNoExit) {
		t.Errorf("no exit: %v", err)
	}
	badReg := &Program{Insns: []insn{{Op: opMovImm, Dst: 99}, {Op: opExit}}}
	if err := verify(badReg, spec); !errors.Is(err, errBadRegister) {
		t.Errorf("bad reg: %v", err)
	}
	jumpPast := &Program{Insns: []insn{{Op: opJA, Off: 5}, {Op: opExit}}}
	if err := verify(jumpPast, spec); err == nil {
		t.Error("jump past end must fail")
	}
	stackOOB := &Program{StackBytes: 8, Insns: []insn{{Op: opStackW, Dst: 1, Off: 8}, {Op: opExit}}}
	if err := verify(stackOOB, spec); !errors.Is(err, errStackLimit) {
		t.Errorf("stack oob: %v", err)
	}
	if err := verify(&Program{}, spec); err == nil {
		t.Error("empty program must fail")
	}
}

func TestChaChaBarelyFits(t *testing.T) {
	// The registry says ChaCha compiles to ~3600 instructions: it must pass
	// the 4096 limit, reproducing "we solved these challenges by ... loop
	// unrolling" (§A.3).
	chacha := SynthesizeNF("chacha", nf.Registry["FastEncrypt"].EBPFInstructions, 256)
	if err := verify(chacha, nicSpec()); err != nil {
		t.Errorf("chacha must fit: %v", err)
	}
	if got, err := run(chacha, testFrame(80)); err != nil || got != xdpPass {
		t.Errorf("chacha run = %d, %v", got, err)
	}
}

func testFrame(dport uint16) []byte {
	return packet.Builder{
		Src: packet.IPv4Addr{10, 1, 2, 3}, Dst: packet.IPv4Addr{172, 16, 5, 6},
		SrcPort: 3333, DstPort: dport, Proto: packet.IPProtoTCP,
		Payload: make([]byte, 64),
	}.Build()
}

func TestNICProcessFrame(t *testing.T) {
	nic := NewNIC(nicSpec())
	chacha, err := nf.New("FastEncrypt", "cc0", nil)
	if err != nil {
		t.Fatal(err)
	}
	prog := SynthesizeNF("chacha", 3600, 256)
	if err := nic.Load(4, 6, &PathProgram{Prog: prog, NFs: []nf.NF{chacha}, AdvanceSI: 1}); err != nil {
		t.Fatal(err)
	}
	frame := testFrame(80)
	orig := append([]byte(nil), frame...)
	enc, _ := nsh.EncapInPlace(frame, 4, 6)
	out, err := nic.ProcessFrameInPlace(enc, &nf.Env{})
	if err != nil {
		t.Fatal(err)
	}
	spi, si, err := nsh.Tag(out)
	if err != nil || spi != 4 || si != 5 {
		t.Fatalf("out tag = %d/%d, %v", spi, si, err)
	}
	// The payload must actually be encrypted.
	dec, _, _, _ := nsh.DecapInPlace(out)
	same := 0
	for i := len(dec) - 32; i < len(dec); i++ {
		if dec[i] == orig[i] {
			same++
		}
	}
	if same > 24 {
		t.Error("payload not transformed by ChaCha on the NIC")
	}
}

func TestNICLoadRejectsUnverifiable(t *testing.T) {
	nic := NewNIC(nicSpec())
	big := SynthesizeNF("big", 10000, 64)
	if err := nic.Load(1, 1, &PathProgram{Prog: big}); !errors.Is(err, errTooManyInsns) {
		t.Errorf("load: %v", err)
	}
	if err := nic.Load(1, 1, &PathProgram{}); err == nil {
		t.Error("nil program must fail")
	}
	// Nothing loaded: frames miss.
	enc, _ := nsh.EncapInPlace(testFrame(1), 1, 1)
	if _, err := nic.ProcessFrameInPlace(enc, &nf.Env{}); !errors.Is(err, errNoProgram) {
		t.Errorf("miss: %v", err)
	}
	if _, err := nic.ProcessFrameInPlace(testFrame(1), &nf.Env{}); err == nil {
		t.Error("untagged frame must fail")
	}
}

// TestNICXDPDropPath: a hand-assembled XDP filter that drops TCP port 22
// decides per frame at the hook: a port-22 frame is a nil drop, a port-80
// frame passes on with its SI advanced.
func TestNICXDPDropPath(t *testing.T) {
	nic := NewNIC(nicSpec())
	prog := &Program{Name: "no-ssh", Insns: []insn{
		{Op: opLdH, Dst: 1, Off: packet.EthernetLen + packet.IPv4Len + 2},
		{Op: opMovImm, Dst: 0, Imm: xdpPass},
		{Op: opJNe, Dst: 1, Imm: 22, Off: 1},
		{Op: opMovImm, Dst: 0, Imm: xdpDrop},
		{Op: opExit},
	}}
	if err := nic.Load(2, 2, &PathProgram{Prog: prog, AdvanceSI: 1}); err != nil {
		t.Fatal(err)
	}
	ssh, _ := nsh.EncapInPlace(testFrame(22), 2, 2)
	if out, err := nic.ProcessFrameInPlace(ssh, &nf.Env{}); err != nil || out != nil {
		t.Errorf("port 22: out=%v err=%v, want nil drop", out, err)
	}
	web, _ := nsh.EncapInPlace(testFrame(80), 2, 2)
	out, err := nic.ProcessFrameInPlace(web, &nf.Env{})
	if err != nil {
		t.Fatal(err)
	}
	if spi, si, err := nsh.Tag(out); err != nil || spi != 2 || si != 1 {
		t.Errorf("port 80: tag = %d/%d, %v; want 2/1", spi, si, err)
	}
}

func TestRunPacketBounds(t *testing.T) {
	// Loads beyond the frame must drop, not panic.
	p := &Program{Insns: []insn{
		{Op: opLdW, Dst: 1, Off: 9999},
		{Op: opMovImm, Dst: 0, Imm: xdpPass},
		{Op: opExit},
	}}
	got, err := run(p, testFrame(1))
	if err != nil || got != xdpDrop {
		t.Errorf("oob load: %d, %v", got, err)
	}
}

// branch assembles a program that sets r1 = 5 and r2 = imm, runs jump op
// (against imm, or against r2 for opJEqReg) over two instructions, and
// returns 1 when the jump is taken and 0 when it falls through.
func branch(op op, imm int64) *Program {
	return &Program{Insns: []insn{
		{Op: opMovImm, Dst: 1, Imm: 5},
		{Op: opMovImm, Dst: 2, Imm: imm},
		{Op: op, Dst: 1, Src: 2, Imm: imm, Off: 2},
		{Op: opMovImm, Dst: 0, Imm: 0},
		{Op: opExit},
		{Op: opMovImm, Dst: 0, Imm: 1},
		{Op: opExit},
	}}
}

// TestRunOpcodes: one hand-assembled program per behaviour, together
// executing every opcode Run implements, each against a fresh TCP frame
// from 10.1.2.3 to port 443.
func TestRunOpcodes(t *testing.T) {
	const word = 0x0102030405060708
	cases := []struct {
		name string
		prog *Program
		want int64
	}{
		{"mov imm", &Program{Insns: []insn{{Op: opMovImm, Dst: 0, Imm: 7}, {Op: opExit}}}, 7},
		{"mov reg", &Program{Insns: []insn{{Op: opMovImm, Dst: 1, Imm: 9}, {Op: opMovReg, Dst: 0, Src: 1}, {Op: opExit}}}, 9},
		{"load byte ip.proto", &Program{Insns: []insn{{Op: opLdB, Dst: 0, Off: packet.EthernetLen + 9}, {Op: opExit}}}, int64(packet.IPProtoTCP)},
		{"load half tcp.dport", &Program{Insns: []insn{{Op: opLdH, Dst: 0, Off: packet.EthernetLen + packet.IPv4Len + 2}, {Op: opExit}}}, 443},
		{"load word ip.src", &Program{Insns: []insn{{Op: opLdW, Dst: 0, Off: packet.EthernetLen + 12}, {Op: opExit}}}, 0x0a010203},
		{"store byte", &Program{Insns: []insn{
			{Op: opMovImm, Dst: 1, Imm: 0x111},
			{Op: opStB, Dst: 1, Off: packet.EthernetLen + 9},
			{Op: opLdB, Dst: 0, Off: packet.EthernetLen + 9},
			{Op: opExit},
		}}, 0x11},
		{"alu", &Program{Insns: []insn{
			{Op: opMovImm, Dst: 0, Imm: 0xf0},
			{Op: opAddImm, Dst: 0, Imm: 0x0f},
			{Op: opAndImm, Dst: 0, Imm: 0x3c},
			{Op: opMovImm, Dst: 1, Imm: 0x01},
			{Op: opXorReg, Dst: 0, Src: 1},
			{Op: opShrImm, Dst: 0, Imm: 2},
			{Op: opExit},
		}}, 0x0f},
		{"stack word", &Program{StackBytes: 16, Insns: []insn{
			{Op: opMovImm, Dst: 1, Imm: word},
			{Op: opStackW, Dst: 1, Off: 8},
			{Op: opLdStkW, Dst: 0, Off: 8},
			{Op: opExit},
		}}, word},
		{"jeq taken", branch(opJEq, 5), 1},
		{"jeq not taken", branch(opJEq, 6), 0},
		{"jne taken", branch(opJNe, 6), 1},
		{"jne not taken", branch(opJNe, 5), 0},
		{"jgt taken", branch(opJGt, 4), 1},
		{"jgt not taken", branch(opJGt, 5), 0},
		{"jge taken", branch(opJGe, 5), 1},
		{"jge not taken", branch(opJGe, 6), 0},
		{"jlt taken", branch(opJLt, 6), 1},
		{"jlt not taken", branch(opJLt, 5), 0},
		{"jle taken", branch(opJLe, 5), 1},
		{"jle not taken", branch(opJLe, 4), 0},
		{"jeq reg taken", branch(opJEqReg, 5), 1},
		{"jeq reg not taken", branch(opJEqReg, 6), 0},
		{"ja", branch(opJA, 0), 1},
	}
	ran := map[op]bool{}
	for _, c := range cases {
		got, err := run(c.prog, testFrame(443))
		if err != nil || got != c.want {
			t.Errorf("%s: Run = %#x, %v; want %#x", c.name, got, err, c.want)
		}
		for _, in := range c.prog.Insns {
			ran[in.Op] = true
		}
	}
	for op := opMovImm; op <= opExit; op++ {
		if op != opCall && !ran[op] {
			t.Errorf("opcode %d is in no case", op)
		}
	}
	if _, err := run(&Program{Insns: []insn{{Op: opCall}, {Op: opExit}}}, testFrame(443)); err == nil {
		t.Error("OpCall must be a run error")
	}
	if _, err := run(&Program{Insns: []insn{{Op: opMovImm}}}, testFrame(443)); !errors.Is(err, errNoExit) {
		t.Errorf("falling off the end: %v, want errNoExit", err)
	}
}
