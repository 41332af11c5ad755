// Package sass defines the SASS-like low-level ISA executed by the NVIDIA
// simulator (nvsim) together with its textual assembler and disassembler.
//
// The paper's GUFI tool deliberately analyses SASS — the binary ISA that
// runs on the real register file — rather than PTX, so that injected
// faults land on actual hardware registers. This package plays the same
// role: workloads are written in this assembly, the assembler resolves
// them to decoded instructions, and nvsim executes them at warp
// granularity with per-thread architectural registers R0..R254 (RZ is the
// hardwired zero register), predicate registers P0..P5 (PT is hardwired
// true), a SIMT reconvergence stack driven by SSY/SYNC, shared memory
// (LDS/STS), global memory (LDG/STG), block barriers (BAR.SYNC) and
// constant-bank kernel parameters (c[n]).
//
// The assembler (asm.go) is a mnemonic table, the ISA's operand kinds and
// one parse loop on top of the front end it shares with siasm, package
// asm, which owns the line grammar and the literal syntax.
package sass

import (
	"fmt"
	"strings"
)

// Opcode enumerates the SASS-like instruction set.
type Opcode int

// Instruction opcodes.
const (
	OpNOP   Opcode = iota
	OpMOV          // MOV Rd, src
	OpS2R          // S2R Rd, SR_*
	OpIADD         // IADD Rd, Ra, src
	OpISUB         // ISUB Rd, Ra, src
	OpIMUL         // IMUL Rd, Ra, src (low 32 bits, signed)
	OpIMIN         // IMIN Rd, Ra, src (signed)
	OpIMAX         // IMAX Rd, Ra, src (signed)
	OpAND          // AND Rd, Ra, src
	OpOR           // OR Rd, Ra, src
	OpXOR          // XOR Rd, Ra, src
	OpSHL          // SHL Rd, Ra, src
	OpSHR          // SHR Rd, Ra, src (logical)
	OpIMAD         // IMAD Rd, Ra, src, src (Rd = Ra*b + c)
	OpFADD         // FADD Rd, Ra, src
	OpFSUB         // FSUB Rd, Ra, src
	OpFMUL         // FMUL Rd, Ra, src
	OpFMIN         // FMIN Rd, Ra, src
	OpFMAX         // FMAX Rd, Ra, src
	OpFFMA         // FFMA Rd, Ra, src, src (Rd = Ra*b + c, fused)
	OpRCP          // MUFU.RCP Rd, src
	OpEX2          // MUFU.EX2 Rd, src (2^x)
	OpLG2          // MUFU.LG2 Rd, src (log2 x)
	OpSQRT         // MUFU.SQRT Rd, src
	OpI2F          // I2F Rd, src (signed int -> float)
	OpF2I          // F2I Rd, src (float -> signed int, truncate)
	OpISETP        // ISETP.cc Pd, Ra, src (signed compare)
	OpFSETP        // FSETP.cc Pd, Ra, src
	OpSEL          // SEL Rd, Ra, src, Pq (Rd = Pq ? Ra : src)
	OpBRA          // BRA label
	OpSSY          // SSY label (push reconvergence point)
	OpSYNC         // SYNC (pop SIMT stack)
	OpBAR          // BAR.SYNC
	OpLDG          // LDG Rd, [Ra+off] (global load)
	OpSTG          // STG [Ra+off], Rb (global store)
	OpLDS          // LDS Rd, [Ra+off] (shared load)
	OpSTS          // STS [Ra+off], Rb (shared store)
	OpEXIT         // EXIT
	opcodeCount
)

var opNames = [...]string{
	OpNOP: "NOP", OpMOV: "MOV", OpS2R: "S2R",
	OpIADD: "IADD", OpISUB: "ISUB", OpIMUL: "IMUL",
	OpIMIN: "IMIN", OpIMAX: "IMAX",
	OpAND: "AND", OpOR: "OR", OpXOR: "XOR", OpSHL: "SHL", OpSHR: "SHR",
	OpIMAD: "IMAD",
	OpFADD: "FADD", OpFSUB: "FSUB", OpFMUL: "FMUL",
	OpFMIN: "FMIN", OpFMAX: "FMAX", OpFFMA: "FFMA",
	OpRCP: "MUFU.RCP", OpEX2: "MUFU.EX2", OpLG2: "MUFU.LG2", OpSQRT: "MUFU.SQRT",
	OpI2F: "I2F", OpF2I: "F2I",
	OpISETP: "ISETP", OpFSETP: "FSETP", OpSEL: "SEL",
	OpBRA: "BRA", OpSSY: "SSY", OpSYNC: "SYNC", OpBAR: "BAR.SYNC",
	OpLDG: "LDG", OpSTG: "STG", OpLDS: "LDS", OpSTS: "STS",
	OpEXIT: "EXIT",
}

// String returns the canonical mnemonic.
func (o Opcode) String() string {
	if o >= 0 && int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Opcode(%d)", int(o))
}

// Class groups opcodes by execution resource for the timing model.
type Class int

// Timing classes.
const (
	ClassALU Class = iota
	ClassSFU
	ClassLocalMem
	ClassGlobalMem
	ClassControl
	ClassBarrier
)

// OpClass returns the timing class of an opcode.
func OpClass(o Opcode) Class {
	switch o {
	case OpRCP, OpEX2, OpLG2, OpSQRT:
		return ClassSFU
	case OpLDS, OpSTS:
		return ClassLocalMem
	case OpLDG, OpSTG:
		return ClassGlobalMem
	case OpBRA, OpSSY, OpSYNC, OpEXIT:
		return ClassControl
	case OpBAR:
		return ClassBarrier
	default:
		return ClassALU
	}
}

// Cmp is a comparison condition for ISETP/FSETP.
type Cmp int

// Comparison conditions.
const (
	CmpLT Cmp = iota
	CmpLE
	CmpGT
	CmpGE
	CmpEQ
	CmpNE
)

var cmpNames = [...]string{"LT", "LE", "GT", "GE", "EQ", "NE"}

// String returns the condition suffix.
func (c Cmp) String() string {
	if c >= 0 && int(c) < len(cmpNames) {
		return cmpNames[c]
	}
	return fmt.Sprintf("Cmp(%d)", int(c))
}

// Special register identifiers for S2R.
type SpecialReg int

// Special registers exposing launch geometry to threads.
const (
	SRTidX SpecialReg = iota
	SRTidY
	SRCtaidX
	SRCtaidY
	SRNTidX
	SRNTidY
	SRNCtaidX
	SRNCtaidY
	SRLaneID
	SRWarpID
)

var srNames = [...]string{
	"SR_TID.X", "SR_TID.Y", "SR_CTAID.X", "SR_CTAID.Y",
	"SR_NTID.X", "SR_NTID.Y", "SR_NCTAID.X", "SR_NCTAID.Y",
	"SR_LANEID", "SR_WARPID",
}

// String returns the special register name.
func (s SpecialReg) String() string {
	if s >= 0 && int(s) < len(srNames) {
		return srNames[s]
	}
	return fmt.Sprintf("SR(%d)", int(s))
}

// Register indices. RZ is encoded as 255 and always reads zero.
const (
	// RZ is the hardwired zero register index.
	RZ = 255
	// PT is the hardwired true predicate index.
	PT = 7
	// MaxRegs is the maximum number of allocatable per-thread registers.
	MaxRegs = 128
	// NumPreds is the number of allocatable predicate registers.
	NumPreds = 6
)

// OperandKind discriminates instruction source operands.
type OperandKind int

// Operand kinds.
const (
	// OperandNone marks an unused operand slot.
	OperandNone OperandKind = iota
	// OperandReg is an architectural register Rn (or RZ).
	OperandReg
	// OperandImm is a 32-bit immediate.
	OperandImm
	// OperandConst is a kernel parameter word in the constant bank, c[n].
	OperandConst
)

// Operand is one instruction source.
type Operand struct {
	Kind OperandKind
	Reg  uint8  // register index for OperandReg
	Imm  uint32 // immediate bits for OperandImm
	CIdx uint16 // constant-bank word index for OperandConst
}

// R builds a register operand.
func R(idx int) Operand { return Operand{Kind: OperandReg, Reg: uint8(idx)} }

// Imm builds an integer immediate operand.
func Imm(v uint32) Operand { return Operand{Kind: OperandImm, Imm: v} }

// C builds a constant-bank operand.
func C(idx int) Operand { return Operand{Kind: OperandConst, CIdx: uint16(idx)} }

// String renders the operand in assembly syntax.
func (o Operand) String() string {
	switch o.Kind {
	case OperandReg:
		return regName(o.Reg)
	case OperandImm:
		return fmt.Sprintf("0x%x", o.Imm)
	case OperandConst:
		return fmt.Sprintf("c[%d]", o.CIdx)
	default:
		return "?"
	}
}

// Guard is the predication guard of an instruction (@Pn or @!Pn).
type Guard struct {
	Pred uint8 // predicate index, PT for unguarded
	Neg  bool
}

// Unguarded reports whether the guard is the constant-true @PT.
func (g Guard) Unguarded() bool { return g.Pred == PT && !g.Neg }

// String renders the guard prefix (empty when unguarded).
func (g Guard) String() string {
	if g.Unguarded() {
		return ""
	}
	n := ""
	if g.Neg {
		n = "!"
	}
	if g.Pred == PT {
		return fmt.Sprintf("@%sPT ", n)
	}
	return fmt.Sprintf("@%sP%d ", n, g.Pred)
}

// Instr is one decoded instruction.
type Instr struct {
	Op    Opcode
	Guard Guard
	Cmp   Cmp        // ISETP/FSETP condition
	SR    SpecialReg // S2R source
	Dst   uint8      // destination register (RZ when unused)
	PDst  uint8      // destination predicate (ISETP/FSETP)
	PSrc  uint8      // predicate source (SEL)
	Src   [3]Operand
	// MemBase/MemOff describe the [Rb + off] address of LDG/STG/LDS/STS.
	MemBase uint8
	MemOff  int32
	// Target is the resolved branch/SSY destination instruction index.
	Target int
	// Line is the 1-based source line, for diagnostics.
	Line int
}

// String disassembles the instruction (branch targets print as indices).
func (in *Instr) String() string {
	var b strings.Builder
	b.WriteString(in.Guard.String())
	switch in.Op {
	case OpNOP, OpSYNC, OpBAR, OpEXIT:
		b.WriteString(in.Op.String())
	case OpBRA, OpSSY:
		fmt.Fprintf(&b, "%s @%d", in.Op, in.Target)
	case OpS2R:
		fmt.Fprintf(&b, "S2R %s, %s", regName(in.Dst), in.SR)
	case OpISETP, OpFSETP:
		fmt.Fprintf(&b, "%s.%s P%d, %s, %s", in.Op, in.Cmp, in.PDst, in.Src[0], in.Src[1])
	case OpSEL:
		p := "PT"
		if in.PSrc != PT {
			p = fmt.Sprintf("P%d", in.PSrc)
		}
		fmt.Fprintf(&b, "SEL %s, %s, %s, %s", regName(in.Dst), in.Src[0], in.Src[1], p)
	case OpLDG, OpLDS:
		fmt.Fprintf(&b, "%s %s, [%s%+d]", in.Op, regName(in.Dst), regName(in.MemBase), in.MemOff)
	case OpSTG, OpSTS:
		fmt.Fprintf(&b, "%s [%s%+d], %s", in.Op, regName(in.MemBase), in.MemOff, in.Src[0])
	case OpIMAD, OpFFMA:
		fmt.Fprintf(&b, "%s %s, %s, %s, %s", in.Op, regName(in.Dst), in.Src[0], in.Src[1], in.Src[2])
	case OpMOV, OpRCP, OpEX2, OpLG2, OpSQRT, OpI2F, OpF2I:
		fmt.Fprintf(&b, "%s %s, %s", in.Op, regName(in.Dst), in.Src[0])
	default:
		fmt.Fprintf(&b, "%s %s, %s, %s", in.Op, regName(in.Dst), in.Src[0], in.Src[1])
	}
	return b.String()
}

func regName(r uint8) string {
	if r == RZ {
		return "RZ"
	}
	return fmt.Sprintf("R%d", r)
}

// Program is an assembled kernel.
type Program struct {
	Name string
	// Instrs is the instruction stream; branch targets are resolved
	// indices into this slice.
	Instrs []Instr
	// NumRegs is the per-thread register demand (highest register index
	// used, plus one).
	NumRegs int
	// SharedBytes is the static shared-memory footprint per thread block
	// (from the .shared directive).
	SharedBytes int
	// NumParams is the number of constant-bank parameter words read.
	NumParams int
}

// KernelName implements gpu.Kernel.
func (p *Program) KernelName() string { return p.Name }

// VectorRegsPerThread implements gpu.Kernel.
func (p *Program) VectorRegsPerThread() int { return p.NumRegs }

// LocalBytesPerGroup implements gpu.Kernel.
func (p *Program) LocalBytesPerGroup() int { return p.SharedBytes }

// Disassemble renders the whole program, one instruction per line.
func (p *Program) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, ".kernel %s\n.shared %d\n", p.Name, p.SharedBytes)
	for i := range p.Instrs {
		fmt.Fprintf(&b, "/*%04d*/ %s\n", i, p.Instrs[i].String())
	}
	return b.String()
}
