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

// Op is an instruction opcode in our eBPF subset.
type Op uint8

// Opcodes. Loads read the packet at a constant offset; arithmetic operates
// on 64-bit registers; jumps are PC-relative and, per the verifier, must be
// forward.
const (
	OpMovImm Op = iota // dst = imm
	OpMovReg           // dst = src
	OpLdB              // dst = pkt[off] (byte)
	OpLdH              // dst = big-endian uint16 at pkt[off]
	OpLdW              // dst = big-endian uint32 at pkt[off]
	OpStB              // pkt[off] = dst (byte)
	OpAddImm
	OpAndImm
	OpXorReg
	OpShrImm
	OpStackW // stack[off] = dst (word) — exercises the 512 B stack limit
	OpLdStkW // dst = stack[off]
	OpJEq    // if dst == imm: pc += off
	OpJNe
	OpJGt
	OpJGe
	OpJLt
	OpJLe
	OpJEqReg // if dst == src: pc += off
	OpJA     // pc += off
	OpCall   // forbidden by the verifier; present so rejection is testable
	OpExit   // return r0
)

// NumRegs is the register file size (r0..r10 like eBPF).
const NumRegs = 11

// Insn is one instruction.
type Insn struct {
	Op       Op
	Dst, Src uint8
	Off      int32 // jump displacement, packet offset, or stack offset
	Imm      int64
}

// Program is an eBPF program plus metadata.
type Program struct {
	Name  string
	Insns []Insn
	// StackBytes is the declared stack usage (the verifier checks it
	// against the NIC's 512-byte limit, and StackW/LdStkW offsets against
	// the declaration).
	StackBytes int
}

// XDP actions returned in r0.
const (
	XDPDrop int64 = 0
	XDPPass int64 = 1
	XDPTx   int64 = 2
)

// Verifier errors.
var (
	ErrTooManyInsns = errors.New("smartnic: program exceeds instruction limit")
	ErrStackLimit   = errors.New("smartnic: stack exceeds limit")
	ErrBackEdge     = errors.New("smartnic: back-edge jump rejected")
	ErrCall         = errors.New("smartnic: function calls not supported")
	ErrBadRegister  = errors.New("smartnic: register out of range")
	ErrNoExit       = errors.New("smartnic: program can fall off the end")
)

// Verify statically checks the program against the NIC's execution limits,
// mirroring the checks that forced the paper's loop-unrolled, fully-inlined
// NF implementations.
func Verify(p *Program, spec *hw.SmartNICSpec) error {
	if len(p.Insns) == 0 {
		return fmt.Errorf("%w: empty program", ErrNoExit)
	}
	if len(p.Insns) > spec.MaxInstructions {
		return fmt.Errorf("%w: %d > %d", ErrTooManyInsns, len(p.Insns), spec.MaxInstructions)
	}
	if p.StackBytes > spec.StackBytes {
		return fmt.Errorf("%w: %d > %d", ErrStackLimit, p.StackBytes, spec.StackBytes)
	}
	for pc, in := range p.Insns {
		if int(in.Dst) >= NumRegs || int(in.Src) >= NumRegs {
			return fmt.Errorf("%w: insn %d", ErrBadRegister, pc)
		}
		switch in.Op {
		case OpCall:
			return fmt.Errorf("%w: insn %d", ErrCall, pc)
		case OpJEq, OpJNe, OpJGt, OpJGe, OpJLt, OpJLe, OpJEqReg, OpJA:
			// Off = 0 targets the next instruction (a harmless fallthrough);
			// anything negative is a loop back-edge, which the NIC rejects.
			if in.Off < 0 {
				return fmt.Errorf("%w: insn %d offset %d", ErrBackEdge, pc, in.Off)
			}
			if pc+1+int(in.Off) > len(p.Insns) {
				return fmt.Errorf("smartnic: insn %d jumps past program end", pc)
			}
		case OpStackW, OpLdStkW:
			if in.Off < 0 || int(in.Off)+8 > p.StackBytes {
				return fmt.Errorf("%w: insn %d accesses stack[%d] beyond declared %d",
					ErrStackLimit, pc, in.Off, p.StackBytes)
			}
		}
	}
	// Because all jumps are forward, falling off the end is possible unless
	// the last reachable instruction is an Exit; require a terminal Exit.
	if p.Insns[len(p.Insns)-1].Op != OpExit {
		return ErrNoExit
	}
	return nil
}

// maxStackBytes is the eBPF stack limit, the value hw.WithSmartNIC declares
// as SmartNICSpec.StackBytes and Verify holds programs to.
const maxStackBytes = 512

// Run executes a verified program over the packet. Packet loads/stores are
// bounds-checked at runtime (out-of-bounds access drops the packet, the
// XDP contract). Forward-only jumps guarantee termination.
func Run(p *Program, pkt []byte) (int64, error) {
	var regs [NumRegs]int64
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
		case OpMovImm:
			regs[in.Dst] = in.Imm
		case OpMovReg:
			regs[in.Dst] = regs[in.Src]
		case OpLdB, OpLdH, OpLdW:
			n := 1
			switch in.Op {
			case OpLdH:
				n = 2
			case OpLdW:
				n = 4
			}
			off := int(in.Off)
			if off < 0 || off+n > len(pkt) {
				return XDPDrop, nil
			}
			v := int64(0)
			for i := 0; i < n; i++ {
				v = v<<8 | int64(pkt[off+i])
			}
			regs[in.Dst] = v
		case OpStB:
			off := int(in.Off)
			if off < 0 || off >= len(pkt) {
				return XDPDrop, nil
			}
			pkt[off] = byte(regs[in.Dst])
		case OpAddImm:
			regs[in.Dst] += in.Imm
		case OpAndImm:
			regs[in.Dst] &= in.Imm
		case OpXorReg:
			regs[in.Dst] ^= regs[in.Src]
		case OpShrImm:
			regs[in.Dst] = int64(uint64(regs[in.Dst]) >> uint(in.Imm))
		case OpStackW:
			for i := 0; i < 8; i++ {
				stack[int(in.Off)+i] = byte(regs[in.Dst] >> (56 - 8*i))
			}
		case OpLdStkW:
			v := int64(0)
			for i := 0; i < 8; i++ {
				v = v<<8 | int64(stack[int(in.Off)+i])
			}
			regs[in.Dst] = v
		case OpJEq:
			if regs[in.Dst] == in.Imm {
				pc += int(in.Off)
			}
		case OpJNe:
			if regs[in.Dst] != in.Imm {
				pc += int(in.Off)
			}
		case OpJGt:
			if regs[in.Dst] > in.Imm {
				pc += int(in.Off)
			}
		case OpJGe:
			if regs[in.Dst] >= in.Imm {
				pc += int(in.Off)
			}
		case OpJLt:
			if regs[in.Dst] < in.Imm {
				pc += int(in.Off)
			}
		case OpJLe:
			if regs[in.Dst] <= in.Imm {
				pc += int(in.Off)
			}
		case OpJEqReg:
			if regs[in.Dst] == regs[in.Src] {
				pc += int(in.Off)
			}
		case OpJA:
			pc += int(in.Off)
		case OpExit:
			return regs[0], nil
		default:
			return XDPDrop, fmt.Errorf("smartnic: bad opcode %d at %d", in.Op, pc)
		}
		pc++
	}
	return XDPDrop, ErrNoExit
}
