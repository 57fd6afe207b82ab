// Package smartnic simulates an eBPF-capable SmartNIC (the paper's Netronome
// Agilio CX): a small eBPF-style instruction set, the verifier whose limits
// shaped the paper's implementation (§A.3: 4096 instructions, 512-byte
// stack, no function calls, no back-edge jumps), a VM executing programs
// over packet buffers via an XDP-style hook, and SynthesizeNF, which stands
// in for the C-compiled eBPF body of each offloaded NF.
package smartnic

import (
	"errors"
	"fmt"

	"lemur/internal/hw"
)

// op is an instruction opcode in our eBPF subset.
type op uint8

// Opcodes. Loads read the packet at a constant offset; arithmetic operates
// on 64-bit registers; jumps are PC-relative and, per the verifier, must be
// forward.
const (
	opMovImm op = iota // dst = imm
	opMovReg           // dst = src
	opLdB              // dst = pkt[off] (byte)
	opLdH              // dst = big-endian uint16 at pkt[off]
	opLdW              // dst = big-endian uint32 at pkt[off]
	opStB              // pkt[off] = dst (byte)
	opAddImm
	opAndImm
	opXorReg
	opShrImm
	opStackW // stack[off] = dst (word) — exercises the 512 B stack limit
	opLdStkW // dst = stack[off]
	opJEq    // if dst == imm: pc += off
	opJNe
	opJGt
	opJGe
	opJLt
	opJLe
	opJEqReg // if dst == src: pc += off
	opJA     // pc += off
	opCall   // forbidden by the verifier; present so rejection is testable
	opExit   // return r0
)

// numRegs is the register file size (r0..r10 like eBPF).
const numRegs = 11

// insn is one instruction.
type insn struct {
	Op       op
	Dst, Src uint8
	Off      int32 // jump displacement, packet offset, or stack offset
	Imm      int64
}

// Program is an eBPF program plus metadata.
type Program struct {
	Name  string
	Insns []insn
	// StackBytes is the declared stack usage (the verifier checks it
	// against the NIC's 512-byte limit, and StackW/LdStkW offsets against
	// the declaration).
	StackBytes int
}

// XDP actions returned in r0.
const (
	xdpDrop int64 = 0
	xdpPass int64 = 1
	xdpTx   int64 = 2
)

// Verifier errors.
var (
	errTooManyInsns = errors.New("smartnic: program exceeds instruction limit")
	errStackLimit   = errors.New("smartnic: stack exceeds limit")
	errBackEdge     = errors.New("smartnic: back-edge jump rejected")
	errCall         = errors.New("smartnic: function calls not supported")
	errBadRegister  = errors.New("smartnic: register out of range")
	errNoExit       = errors.New("smartnic: program can fall off the end")
)

// verify statically checks the program against the NIC's execution limits,
// mirroring the checks that forced the paper's loop-unrolled, fully-inlined
// NF implementations.
func verify(p *Program, spec *hw.SmartNICSpec) error {
	if len(p.Insns) == 0 {
		return fmt.Errorf("%w: empty program", errNoExit)
	}
	if len(p.Insns) > spec.MaxInstructions {
		return fmt.Errorf("%w: %d > %d", errTooManyInsns, len(p.Insns), spec.MaxInstructions)
	}
	if p.StackBytes > spec.StackBytes {
		return fmt.Errorf("%w: %d > %d", errStackLimit, p.StackBytes, spec.StackBytes)
	}
	for pc, in := range p.Insns {
		if int(in.Dst) >= numRegs || int(in.Src) >= numRegs {
			return fmt.Errorf("%w: insn %d", errBadRegister, pc)
		}
		switch in.Op {
		case opCall:
			return fmt.Errorf("%w: insn %d", errCall, pc)
		case opJEq, opJNe, opJGt, opJGe, opJLt, opJLe, opJEqReg, opJA:
			// Off = 0 targets the next instruction (a harmless fallthrough);
			// anything negative is a loop back-edge, which the NIC rejects.
			if in.Off < 0 {
				return fmt.Errorf("%w: insn %d offset %d", errBackEdge, pc, in.Off)
			}
			if pc+1+int(in.Off) > len(p.Insns) {
				return fmt.Errorf("smartnic: insn %d jumps past program end", pc)
			}
		case opStackW, opLdStkW:
			if in.Off < 0 || int(in.Off)+8 > p.StackBytes {
				return fmt.Errorf("%w: insn %d accesses stack[%d] beyond declared %d",
					errStackLimit, pc, in.Off, p.StackBytes)
			}
		}
	}
	// Because all jumps are forward, falling off the end is possible unless
	// the last reachable instruction is an Exit; require a terminal Exit.
	if p.Insns[len(p.Insns)-1].Op != opExit {
		return errNoExit
	}
	return nil
}

// maxStackBytes is the eBPF stack limit, the value hw.WithSmartNIC declares
// as SmartNICSpec.StackBytes and Verify holds programs to.
const maxStackBytes = 512

// run executes a verified program over the packet. Packet loads/stores are
// bounds-checked at runtime (out-of-bounds access drops the packet, the
// XDP contract). Forward-only jumps guarantee termination.
func run(p *Program, pkt []byte) (int64, error) {
	var regs [numRegs]int64
	// Programs within the eBPF stack limit hw declares run on a local
	// array; only an oversized (unverifiable) one pays for a heap stack.
	var local [maxStackBytes]byte
	stack := local[:]
	if p.StackBytes > maxStackBytes {
		stack = make([]byte, p.StackBytes)
	}
	stack = stack[:p.StackBytes]
	pc := 0
	for pc < len(p.Insns) {
		in := p.Insns[pc]
		switch in.Op {
		case opMovImm:
			regs[in.Dst] = in.Imm
		case opMovReg:
			regs[in.Dst] = regs[in.Src]
		case opLdB, opLdH, opLdW:
			n := 1
			switch in.Op {
			case opLdH:
				n = 2
			case opLdW:
				n = 4
			}
			off := int(in.Off)
			if off < 0 || off+n > len(pkt) {
				return xdpDrop, nil
			}
			v := int64(0)
			for i := 0; i < n; i++ {
				v = v<<8 | int64(pkt[off+i])
			}
			regs[in.Dst] = v
		case opStB:
			off := int(in.Off)
			if off < 0 || off >= len(pkt) {
				return xdpDrop, nil
			}
			pkt[off] = byte(regs[in.Dst])
		case opAddImm:
			regs[in.Dst] += in.Imm
		case opAndImm:
			regs[in.Dst] &= in.Imm
		case opXorReg:
			regs[in.Dst] ^= regs[in.Src]
		case opShrImm:
			regs[in.Dst] = int64(uint64(regs[in.Dst]) >> uint(in.Imm))
		case opStackW:
			for i := 0; i < 8; i++ {
				stack[int(in.Off)+i] = byte(regs[in.Dst] >> (56 - 8*i))
			}
		case opLdStkW:
			v := int64(0)
			for i := 0; i < 8; i++ {
				v = v<<8 | int64(stack[int(in.Off)+i])
			}
			regs[in.Dst] = v
		case opJEq:
			if regs[in.Dst] == in.Imm {
				pc += int(in.Off)
			}
		case opJNe:
			if regs[in.Dst] != in.Imm {
				pc += int(in.Off)
			}
		case opJGt:
			if regs[in.Dst] > in.Imm {
				pc += int(in.Off)
			}
		case opJGe:
			if regs[in.Dst] >= in.Imm {
				pc += int(in.Off)
			}
		case opJLt:
			if regs[in.Dst] < in.Imm {
				pc += int(in.Off)
			}
		case opJLe:
			if regs[in.Dst] <= in.Imm {
				pc += int(in.Off)
			}
		case opJEqReg:
			if regs[in.Dst] == regs[in.Src] {
				pc += int(in.Off)
			}
		case opJA:
			pc += int(in.Off)
		case opExit:
			return regs[0], nil
		default:
			return xdpDrop, fmt.Errorf("smartnic: bad opcode %d at %d", in.Op, pc)
		}
		pc++
	}
	return xdpDrop, errNoExit
}
