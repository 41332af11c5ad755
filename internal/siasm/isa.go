// Package siasm defines the AMD Southern-Islands-like ISA executed by the
// AMD compute-unit simulator (amdsim), together with its textual
// assembler. It is the reproduction's stand-in for the SI binary ISA that
// Multi2Sim 4.2 executes under the paper's SIFI tool.
//
// The ISA follows the SI split design: scalar instructions (s_*) execute
// once per 64-work-item wavefront against scalar registers s0..s103, the
// SCC bit, and the 64-bit EXEC and VCC masks; vector instructions (v_*)
// execute per active lane against vector registers v0..v255. Control
// divergence is compiler-managed through EXEC-mask save/restore sequences
// (v_cmp_* + s_and_saveexec_b64 + s_mov_b64 exec), exactly as SI binaries
// do — there is no hardware reconvergence stack.
//
// Launch ABI: v0/v1 hold the work-item local id (x, y); s12/s13 hold the
// workgroup id (x, y); kernel arguments are fetched with
// "s_load_dword sN, karg[i]".
//
// The assembler (asm.go) is a mnemonic table — one canonical spelling per
// opcode, which is what the disassembler prints, plus aliases — the ISA's
// operand kinds and one parse loop on top of the front end it shares with
// sass, package asm, which owns the line grammar and the literal syntax.
package siasm

import (
	"fmt"
	"strings"
)

// Limits of the register files.
const (
	// MaxVGPRs is the per-work-item vector register limit.
	MaxVGPRs = 256
	// MaxSGPRs is the per-wavefront scalar register limit.
	MaxSGPRs = 104
)

// Preloaded scalar registers (launch ABI).
const (
	// SRegWGIDX / SRegWGIDY hold the workgroup id at kernel entry.
	SRegWGIDX = 12
	SRegWGIDY = 13
)

// Opcode enumerates the instruction set.
type Opcode int

// Scalar (SOP), vector (VOP), data-share (DS), buffer (MUBUF) and
// program-control opcodes.
const (
	OpSNop    Opcode = iota
	OpSMov32         // s_mov_b32 sD, ssrc
	OpSAdd           // s_add_i32
	OpSSub           // s_sub_i32
	OpSMul           // s_mul_i32
	OpSAnd32         // s_and_b32
	OpSOr32          // s_or_b32
	OpSXor32         // s_xor_b32
	OpSLshl          // s_lshl_b32
	OpSLshr          // s_lshr_b32
	OpSMin           // s_min_i32
	OpSMax           // s_max_i32
	OpSCmp           // s_cmp_<cc>_i32|u32 -> SCC
	OpSLoadDW        // s_load_dword sD, karg[i]

	OpSMov64       // s_mov_b64 D64, S64
	OpSAnd64       // s_and_b64 D64, S64, S64
	OpSOr64        // s_or_b64
	OpSXor64       // s_xor_b64
	OpSAndn264     // s_andn2_b64 (D = S0 & ~S1)
	OpSNot64       // s_not_b64 D64, S64
	OpSAndSaveexec // s_and_saveexec_b64 D64, S64 (D=EXEC; EXEC&=S; SCC=EXEC!=0)
	OpSOrSaveexec  // s_or_saveexec_b64 D64, S64 (D=EXEC; EXEC|=S; SCC=EXEC!=0)

	OpSBranch  // s_branch label
	OpSCBranch // s_cbranch_<cond> label
	OpSBarrier // s_barrier
	OpSEndpgm  // s_endpgm
	OpSWaitcnt // s_waitcnt (timing hint; scoreboard handles ordering)

	OpVMov     // v_mov_b32 vD, src
	OpVAddI    // v_add_i32 vD, a, b
	OpVSubI    // v_sub_i32
	OpVMulI    // v_mul_i32 (low 32, signed)
	OpVMinI    // v_min_i32
	OpVMaxI    // v_max_i32
	OpVAnd     // v_and_b32
	OpVOr      // v_or_b32
	OpVXor     // v_xor_b32
	OpVLshlrev // v_lshlrev_b32 (D = S1 << S0)
	OpVLshrrev // v_lshrrev_b32 (D = S1 >> S0, logical)
	OpVAddF    // v_add_f32
	OpVSubF    // v_sub_f32
	OpVMulF    // v_mul_f32
	OpVMacF    // v_mac_f32 (D += S0*S1)
	OpVMinF    // v_min_f32
	OpVMaxF    // v_max_f32
	OpVRcpF    // v_rcp_f32
	OpVSqrtF   // v_sqrt_f32
	OpVExpF    // v_exp_f32 (2^x)
	OpVLogF    // v_log_f32 (log2 x)
	OpVCvtFI   // v_cvt_f32_i32
	OpVCvtIF   // v_cvt_i32_f32 (truncate)
	OpVCmp     // v_cmp_<cc>_<ty> vcc, a, b
	OpVCndmask // v_cndmask_b32 vD, s0, s1, vcc (D = vcc ? s1 : s0)

	OpDSRead  // ds_read_b32 vD, vAddr[, off]
	OpDSWrite // ds_write_b32 vAddr, vS[, off]
	OpBufLoad // buffer_load_dword vD, vAddr[, off]
	OpBufStor // buffer_store_dword vS, vAddr[, off]
)

// Class groups opcodes by execution resource for the timing model.
type Class int

// Timing classes.
const (
	ClassScalar Class = iota
	ClassVector
	ClassSFU
	ClassLDS
	ClassGlobal
	ClassControl
	ClassBarrier
)

// OpClass returns the timing class of an opcode.
func OpClass(o Opcode) Class {
	switch o {
	case OpVRcpF, OpVSqrtF, OpVExpF, OpVLogF:
		return ClassSFU
	case OpDSRead, OpDSWrite:
		return ClassLDS
	case OpBufLoad, OpBufStor, OpSLoadDW:
		return ClassGlobal
	case OpSBranch, OpSCBranch, OpSEndpgm, OpSWaitcnt, OpSNop:
		return ClassControl
	case OpSBarrier:
		return ClassBarrier
	case OpVMov, OpVAddI, OpVSubI, OpVMulI, OpVMinI, OpVMaxI,
		OpVAnd, OpVOr, OpVXor, OpVLshlrev, OpVLshrrev,
		OpVAddF, OpVSubF, OpVMulF, OpVMacF, OpVMinF, OpVMaxF,
		OpVCvtFI, OpVCvtIF, OpVCmp, OpVCndmask:
		return ClassVector
	default:
		return ClassScalar
	}
}

// Cond is a comparison condition.
type Cond int

// Comparison conditions (lg is the SI mnemonic for "not equal").
const (
	CondEQ Cond = iota
	CondNE
	CondLT
	CondLE
	CondGT
	CondGE
)

var condNames = [...]string{"eq", "ne", "lt", "le", "gt", "ge"}

// String returns the condition mnemonic fragment.
func (c Cond) String() string {
	if c >= 0 && int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("Cond(%d)", int(c))
}

// CmpType is the operand interpretation of a comparison.
type CmpType int

// Comparison operand types.
const (
	CmpI32 CmpType = iota
	CmpU32
	CmpF32
)

var cmpTypeNames = [...]string{"i32", "u32", "f32"}

// BranchCond enumerates s_cbranch_* variants.
type BranchCond int

// Conditional-branch conditions.
const (
	BrSCC0 BranchCond = iota
	BrSCC1
	BrVCCZ
	BrVCCNZ
	BrEXECZ
	BrEXECNZ
)

var brNames = [...]string{"scc0", "scc1", "vccz", "vccnz", "execz", "execnz"}

// String returns the branch-condition mnemonic fragment.
func (b BranchCond) String() string {
	if b >= 0 && int(b) < len(brNames) {
		return brNames[b]
	}
	return fmt.Sprintf("BranchCond(%d)", int(b))
}

// OperandKind discriminates operand encodings.
type OperandKind int

// Operand kinds.
const (
	OperandNone OperandKind = iota
	// OperandVReg is a vector register vN.
	OperandVReg
	// OperandSReg is a scalar register sN.
	OperandSReg
	// OperandSReg64 is an aligned scalar register pair s[N:N+1].
	OperandSReg64
	// OperandImm is a 32-bit literal.
	OperandImm
	// OperandVCC is the 64-bit vector condition code mask.
	OperandVCC
	// OperandEXEC is the 64-bit execution mask.
	OperandEXEC
)

// Operand is one instruction operand.
type Operand struct {
	Kind OperandKind
	Reg  uint8
	Imm  uint32
}

// V builds a VGPR operand.
func V(n int) Operand { return Operand{Kind: OperandVReg, Reg: uint8(n)} }

// S builds an SGPR operand.
func S(n int) Operand { return Operand{Kind: OperandSReg, Reg: uint8(n)} }

// Imm builds an integer literal operand.
func Imm(v uint32) Operand { return Operand{Kind: OperandImm, Imm: v} }

// String renders the operand in assembly syntax.
func (o Operand) String() string {
	switch o.Kind {
	case OperandVReg:
		return fmt.Sprintf("v%d", o.Reg)
	case OperandSReg:
		return fmt.Sprintf("s%d", o.Reg)
	case OperandSReg64:
		return fmt.Sprintf("s[%d:%d]", o.Reg, o.Reg+1)
	case OperandImm:
		return fmt.Sprintf("0x%x", o.Imm)
	case OperandVCC:
		return "vcc"
	case OperandEXEC:
		return "exec"
	default:
		return "?"
	}
}

// Instr is one decoded instruction.
type Instr struct {
	Op     Opcode
	Cond   Cond
	CmpTy  CmpType
	BrCond BranchCond
	Dst    Operand
	Src    [3]Operand
	// KArg is the kernel-argument word index for s_load_dword.
	KArg uint16
	// MemOff is the byte offset of DS/buffer accesses.
	MemOff int32
	// Target is the resolved branch destination index.
	Target int
	// Line is the 1-based source line for diagnostics.
	Line int
}

// Program is an assembled SI kernel.
type Program struct {
	Name string
	// Instrs is the instruction stream with resolved branch targets.
	Instrs []Instr
	// NumVGPRs is the per-work-item vector register demand.
	NumVGPRs int
	// NumSGPRs is the per-wavefront scalar register demand.
	NumSGPRs int
	// LDSBytes is the static local-data-share footprint per workgroup.
	LDSBytes int
	// NumKArgs is the number of kernel-argument words loaded.
	NumKArgs int
}

// KernelName implements gpu.Kernel.
func (p *Program) KernelName() string { return p.Name }

// VectorRegsPerThread implements gpu.Kernel.
func (p *Program) VectorRegsPerThread() int { return p.NumVGPRs }

// LocalBytesPerGroup implements gpu.Kernel.
func (p *Program) LocalBytesPerGroup() int { return p.LDSBytes }

// Disassemble renders the program, one instruction per line.
func (p *Program) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, ".kernel %s\n.lds %d\n", p.Name, p.LDSBytes)
	for i := range p.Instrs {
		fmt.Fprintf(&b, "/*%04d*/ %s\n", i, p.Instrs[i].String())
	}
	return b.String()
}

// String disassembles one instruction (branch targets as indices).
func (in *Instr) String() string {
	switch in.Op {
	case OpSNop, OpSWaitcnt, OpSBarrier, OpSEndpgm:
		return mnemonicOf[in.Op]
	case OpSBranch:
		return fmt.Sprintf("s_branch @%d", in.Target)
	case OpSCBranch:
		return fmt.Sprintf("s_cbranch_%s @%d", in.BrCond, in.Target)
	case OpSLoadDW:
		return fmt.Sprintf("s_load_dword %s, karg[%d]", in.Dst, in.KArg)
	case OpSCmp:
		return fmt.Sprintf("s_cmp_%s_%s %s, %s", in.Cond, cmpTypeNames[in.CmpTy], in.Src[0], in.Src[1])
	case OpVCmp:
		return fmt.Sprintf("v_cmp_%s_%s vcc, %s, %s", in.Cond, cmpTypeNames[in.CmpTy], in.Src[0], in.Src[1])
	case OpVCndmask:
		return fmt.Sprintf("v_cndmask_b32 %s, %s, %s, vcc", in.Dst, in.Src[0], in.Src[1])
	case OpDSRead:
		return fmt.Sprintf("ds_read_b32 %s, %s, %d", in.Dst, in.Src[0], in.MemOff)
	case OpDSWrite:
		return fmt.Sprintf("ds_write_b32 %s, %s, %d", in.Src[0], in.Src[1], in.MemOff)
	case OpBufLoad:
		return fmt.Sprintf("buffer_load_dword %s, %s, %d", in.Dst, in.Src[0], in.MemOff)
	case OpBufStor:
		return fmt.Sprintf("buffer_store_dword %s, %s, %d", in.Src[0], in.Src[1], in.MemOff)
	default:
		name, ok := mnemonicOf[in.Op]
		if !ok {
			name = fmt.Sprintf("op%d", int(in.Op))
		}
		parts := []string{}
		if in.Dst.Kind != OperandNone {
			parts = append(parts, in.Dst.String())
		}
		for _, s := range in.Src {
			if s.Kind != OperandNone {
				parts = append(parts, s.String())
			}
		}
		return name + " " + strings.Join(parts, ", ")
	}
}
