package smartnic

import "lemur/internal/packet"

// SynthesizeNF emits a loop-unrolled, fully-inlined program standing in for
// the C-compiled eBPF body of an NF class (§A.3): insnCount arithmetic and
// stack instructions that lightly mix packet bytes, terminated by
// xdpPass+Exit. The instruction count reproduces the real program's size so
// the verifier's 4096-instruction limit bites exactly where it did for the
// authors (ChaCha barely fits).
func SynthesizeNF(name string, insnCount, stackBytes int) *Program {
	p := &Program{Name: name, StackBytes: stackBytes}
	body := insnCount - 2 // reserve MovImm+Exit
	if body < 0 {
		body = 0
	}
	for i := 0; i < body; i++ {
		switch i % 4 {
		case 0:
			p.Insns = append(p.Insns, insn{Op: opLdB, Dst: 1, Off: int32(packet.EthernetLen + i%32)})
		case 1:
			p.Insns = append(p.Insns, insn{Op: opAddImm, Dst: 1, Imm: int64(i)})
		case 2:
			if stackBytes >= 8 {
				p.Insns = append(p.Insns, insn{Op: opStackW, Dst: 1, Off: int32(8 * (i % (stackBytes / 8)))})
			} else {
				p.Insns = append(p.Insns, insn{Op: opMovReg, Dst: 2, Src: 1})
			}
		default:
			p.Insns = append(p.Insns, insn{Op: opXorReg, Dst: 1, Src: 2})
		}
	}
	p.Insns = append(p.Insns, insn{Op: opMovImm, Dst: 0, Imm: xdpPass}, insn{Op: opExit})
	return p
}
