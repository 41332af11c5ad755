package siasm

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/asm"
)

var dialect = asm.Dialect{Name: "siasm", Local: ".lds"}

// operand parses one operand string into its place in the instruction.
// scan is there for the one kind that looks outside its own text, the
// branch label.
type operand func(in *Instr, s string, scan *asm.Source) error

func sdst(in *Instr, s string, _ *asm.Source) error {
	d, err := parseOperand(s)
	if err != nil || d.Kind != OperandSReg {
		return fmt.Errorf("destination must be an SGPR")
	}
	in.Dst = d
	return nil
}

func d64(in *Instr, s string, _ *asm.Source) error {
	d, err := parse64(s)
	if err != nil || d.Kind == OperandImm {
		return fmt.Errorf("destination must be a 64-bit scalar")
	}
	in.Dst = d
	return nil
}

func vdst(in *Instr, s string, _ *asm.Source) (err error) {
	in.Dst, err = parseVReg(s)
	return err
}

// src builds a source kind: what parse accepts, into Src[i].
func src(i int, parse func(string) (Operand, error)) operand {
	return func(in *Instr, s string, _ *asm.Source) (err error) {
		in.Src[i], err = parse(s)
		return err
	}
}

// vcc is the operand that can only be spelled "vcc": the destination of
// v_cmp, the selector of v_cndmask_b32.
func vcc(_ *Instr, s string, _ *asm.Source) error {
	if strings.ToLower(s) != "vcc" {
		return fmt.Errorf("operand %q must be vcc", s)
	}
	return nil
}

func karg(in *Instr, s string, _ *asm.Source) error {
	inner, ok := asm.Bracket(strings.ToLower(s), "karg")
	if !ok {
		return fmt.Errorf("source must be karg[i], got %q", s)
	}
	k, ok := asm.Index(inner, 0xffff)
	if !ok {
		return fmt.Errorf("bad kernarg index %q", s)
	}
	in.KArg = uint16(k)
	return nil
}

func off(in *Instr, s string, _ *asm.Source) error {
	v, err := strconv.ParseInt(s, 0, 32)
	if err != nil {
		return fmt.Errorf("bad offset %q", s)
	}
	in.MemOff = int32(v)
	return nil
}

func label(in *Instr, s string, scan *asm.Source) (err error) {
	in.Target, err = scan.Target(s)
	return err
}

// shape is the operand pattern of a mnemonic: its kinds in source order.
type shape struct {
	kinds []operand
	opt   int  // how many trailing kinds may be omitted
	hints bool // any operands, all ignored: they are timing hints only
}

var (
	src0, src1 = src(0, parseOperand), src(1, parseOperand) // any register, mask or literal
	vsrc0      = src(0, parseVReg)                          // a VGPR: an address, or data to store
	s64a, s64b = src(0, parse64), src(1, parse64)           // a 64-bit scalar or a literal

	shapeNone    = shape{}
	shapeHints   = shape{hints: true}                                // s_waitcnt vmcnt(0)
	shapeUnS     = shape{kinds: []operand{sdst, src0}}               // sdst, ssrc
	shapeBinS    = shape{kinds: []operand{sdst, src0, src1}}         // sdst, ssrc, ssrc
	shapeCmpS    = shape{kinds: []operand{src0, src1}}               // ssrc, ssrc -> SCC
	shapeLoadK   = shape{kinds: []operand{sdst, karg}}               // sdst, karg[i]
	shapeUn64    = shape{kinds: []operand{d64, s64a}}                // d64, s64
	shapeBin64   = shape{kinds: []operand{d64, s64a, s64b}}          // d64, s64, s64
	shapeLabel   = shape{kinds: []operand{label}}                    // label
	shapeUnV     = shape{kinds: []operand{vdst, src0}}               // vdst, src
	shapeBinV    = shape{kinds: []operand{vdst, src0, src1}}         // vdst, src, src
	shapeCmpV    = shape{kinds: []operand{vcc, src0, src1}}          // vcc, src, src
	shapeCndmask = shape{kinds: []operand{vdst, src0, src1, vcc}}    // vdst, src, src, vcc
	shapeLoad    = shape{kinds: []operand{vdst, vsrc0, off}, opt: 1} // vdst, vaddr[, off]
	// ds_write_b32 vaddr, vsrc / buffer_store_dword vsrc, vaddr.
	shapeStore = shape{kinds: []operand{vsrc0, src1, off}, opt: 1}
)

// mnemonics maps each opcode's one canonical spelling — what the
// disassembler prints — to its shape. A new mnemonic is one row here (a
// second spelling of an opcode is a row in aliases). A key that ends in
// '_' is a family whose condition is the rest of the mnemonic
// (s_cbranch_execz, v_cmp_lt_i32).
var mnemonics = map[string]struct {
	op    Opcode
	shape shape
}{
	"s_nop":     {OpSNop, shapeHints},
	"s_waitcnt": {OpSWaitcnt, shapeHints},
	"s_barrier": {OpSBarrier, shapeNone},
	"s_endpgm":  {OpSEndpgm, shapeNone},

	"s_mov_b32":    {OpSMov32, shapeUnS},
	"s_add_i32":    {OpSAdd, shapeBinS},
	"s_sub_i32":    {OpSSub, shapeBinS},
	"s_mul_i32":    {OpSMul, shapeBinS},
	"s_and_b32":    {OpSAnd32, shapeBinS},
	"s_or_b32":     {OpSOr32, shapeBinS},
	"s_xor_b32":    {OpSXor32, shapeBinS},
	"s_lshl_b32":   {OpSLshl, shapeBinS},
	"s_lshr_b32":   {OpSLshr, shapeBinS},
	"s_min_i32":    {OpSMin, shapeBinS},
	"s_max_i32":    {OpSMax, shapeBinS},
	"s_cmp_":       {OpSCmp, shapeCmpS},
	"s_load_dword": {OpSLoadDW, shapeLoadK},

	"s_mov_b64":          {OpSMov64, shapeUn64},
	"s_not_b64":          {OpSNot64, shapeUn64},
	"s_and_b64":          {OpSAnd64, shapeBin64},
	"s_or_b64":           {OpSOr64, shapeBin64},
	"s_xor_b64":          {OpSXor64, shapeBin64},
	"s_andn2_b64":        {OpSAndn264, shapeBin64},
	"s_and_saveexec_b64": {OpSAndSaveexec, shapeUn64},
	"s_or_saveexec_b64":  {OpSOrSaveexec, shapeUn64},

	"s_branch":   {OpSBranch, shapeLabel},
	"s_cbranch_": {OpSCBranch, shapeLabel},

	"v_mov_b32":     {OpVMov, shapeUnV},
	"v_rcp_f32":     {OpVRcpF, shapeUnV},
	"v_sqrt_f32":    {OpVSqrtF, shapeUnV},
	"v_exp_f32":     {OpVExpF, shapeUnV},
	"v_log_f32":     {OpVLogF, shapeUnV},
	"v_cvt_f32_i32": {OpVCvtFI, shapeUnV},
	"v_cvt_i32_f32": {OpVCvtIF, shapeUnV},

	"v_add_i32":     {OpVAddI, shapeBinV},
	"v_sub_i32":     {OpVSubI, shapeBinV},
	"v_mul_i32":     {OpVMulI, shapeBinV},
	"v_min_i32":     {OpVMinI, shapeBinV},
	"v_max_i32":     {OpVMaxI, shapeBinV},
	"v_and_b32":     {OpVAnd, shapeBinV},
	"v_or_b32":      {OpVOr, shapeBinV},
	"v_xor_b32":     {OpVXor, shapeBinV},
	"v_lshlrev_b32": {OpVLshlrev, shapeBinV},
	"v_lshrrev_b32": {OpVLshrrev, shapeBinV},
	"v_add_f32":     {OpVAddF, shapeBinV},
	"v_sub_f32":     {OpVSubF, shapeBinV},
	"v_mul_f32":     {OpVMulF, shapeBinV},
	"v_min_f32":     {OpVMinF, shapeBinV},
	"v_max_f32":     {OpVMaxF, shapeBinV},
	"v_mac_f32":     {OpVMacF, shapeBinV}, // vdst is read-modify-write

	"v_cmp_":        {OpVCmp, shapeCmpV},
	"v_cndmask_b32": {OpVCndmask, shapeCndmask},

	"ds_read_b32":        {OpDSRead, shapeLoad},
	"ds_write_b32":       {OpDSWrite, shapeStore},
	"buffer_load_dword":  {OpBufLoad, shapeLoad},
	"buffer_store_dword": {OpBufStor, shapeStore},
}

// aliases are the accepted spellings the disassembler never prints, each
// with the canonical mnemonic it assembles as.
var aliases = map[string]string{
	"v_mul_lo_i32": "v_mul_i32",
	"v_mul_lo_u32": "v_mul_i32",
}

// canonicalMnemonics builds the disassembler's reverse table. mnemonics
// holds one spelling per opcode, so the result does not depend on map
// iteration order.
func canonicalMnemonics() map[Opcode]string {
	m := make(map[Opcode]string, len(mnemonics))
	for name, sp := range mnemonics {
		m[sp.op] = name
	}
	return m
}

var mnemonicOf = canonicalMnemonics()

// Assemble parses an SI-like kernel source into a Program. The line
// grammar (.kernel, .lds, labels, comments) and the literal syntax are
// package asm's; an instruction is a mnemonic and comma-separated
// operands: vN, sN, s[N:N+1], vcc, exec, literals, karg[i] for
// s_load_dword, and labels or @N as branch targets.
func Assemble(text string) (*Program, error) {
	scan, err := dialect.Scan(text)
	if err != nil {
		return nil, err
	}
	p := &Program{Name: scan.Name, LDSBytes: scan.LocalBytes, Instrs: make([]Instr, len(scan.Stmts))}
	maxV, maxS, maxK := -1, -1, -1
	note := func(o Operand) {
		switch o.Kind {
		case OperandVReg:
			maxV = max(maxV, int(o.Reg))
		case OperandSReg:
			maxS = max(maxS, int(o.Reg))
		case OperandSReg64:
			maxS = max(maxS, int(o.Reg)+1)
		}
	}
	hasEnd := false
	for i, st := range scan.Stmts {
		in := &p.Instrs[i]
		in.Line = st.Line
		if err := parseInstr(in, st.Text, scan); err != nil {
			return nil, dialect.Errorf(st.Line, "%v", err)
		}
		note(in.Dst)
		for _, o := range in.Src {
			note(o)
		}
		if in.Op == OpSLoadDW {
			maxK = max(maxK, int(in.KArg))
		}
		hasEnd = hasEnd || in.Op == OpSEndpgm
	}
	if !hasEnd {
		return nil, fmt.Errorf("siasm: %s: program has no s_endpgm", p.Name)
	}
	if maxV+1 > MaxVGPRs {
		return nil, fmt.Errorf("siasm: %s: uses %d VGPRs, max %d", p.Name, maxV+1, MaxVGPRs)
	}
	if maxS+1 > MaxSGPRs {
		return nil, fmt.Errorf("siasm: %s: uses %d SGPRs, max %d", p.Name, maxS+1, MaxSGPRs)
	}
	// v0 (local id) and s12/s13 (workgroup id) are always materialized.
	p.NumVGPRs = max(maxV+1, 1)
	p.NumSGPRs = max(maxS+1, SRegWGIDY+1)
	p.NumKArgs = maxK + 1
	return p, nil
}

// MustAssemble is Assemble that panics on error; for static kernel tables.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

// parseInstr fills in from one statement: it peels what SI encodes in the
// mnemonic — the branch condition, the comparison and its type — down to
// the family's row, looks that up, and runs its shape over the operands.
func parseInstr(in *Instr, text string, scan *asm.Source) error {
	mn, ops := asm.Cut(text)
	mn = strings.ToLower(mn)
	args := asm.Fields(ops)

	name := mn
	if cond, ok := strings.CutPrefix(mn, "s_cbranch_"); ok {
		i := slices.Index(brNames[:], cond)
		if i < 0 {
			return fmt.Errorf("unknown branch condition in %q", mn)
		}
		in.BrCond, name = BranchCond(i), "s_cbranch_"
	} else if strings.HasPrefix(mn, "s_cmp_") || strings.HasPrefix(mn, "v_cmp_") {
		cc, ty, _ := strings.Cut(mn[6:], "_")
		if cc == "lg" { // the SI mnemonic for "not equal"
			cc = "ne"
		}
		c, t := slices.Index(condNames[:], cc), slices.Index(cmpTypeNames[:], ty)
		if c < 0 || t < 0 {
			return fmt.Errorf("unknown comparison in %q", mn)
		}
		if mn[0] == 's' && CmpType(t) == CmpF32 {
			return fmt.Errorf("%s: scalar float compare unsupported", mn)
		}
		in.Cond, in.CmpTy, name = Cond(c), CmpType(t), mn[:6]
	} else if canon, ok := aliases[mn]; ok {
		name = canon
	}
	sp, ok := mnemonics[name]
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mn)
	}
	in.Op = sp.op
	sh := sp.shape
	if sh.hints {
		return nil
	}
	if len(args) < len(sh.kinds)-sh.opt || len(args) > len(sh.kinds) {
		return fmt.Errorf("%s expects %d-%d operands, got %d", mn, len(sh.kinds)-sh.opt, len(sh.kinds), len(args))
	}
	for i, a := range args {
		if err := sh.kinds[i](in, a, scan); err != nil {
			return fmt.Errorf("%s: %v", mn, err)
		}
	}
	return nil
}

// parseOperand parses any operand form except karg[i].
func parseOperand(s string) (Operand, error) {
	low := strings.ToLower(s)
	switch low {
	case "vcc":
		return Operand{Kind: OperandVCC}, nil
	case "exec":
		return Operand{Kind: OperandEXEC}, nil
	}
	// s[N:N+1] pair.
	if inner, ok := asm.Bracket(low, "s"); ok {
		lo, hi, _ := strings.Cut(inner, ":")
		a, okA := asm.Index(lo, MaxSGPRs-2)
		b, okB := asm.Index(hi, MaxSGPRs-1)
		if !okA || !okB || b != a+1 {
			return Operand{}, fmt.Errorf("bad register pair %q", s)
		}
		return Operand{Kind: OperandSReg64, Reg: uint8(a)}, nil
	}
	// vN / sN; no literal starts with either letter.
	if strings.HasPrefix(low, "v") {
		n, ok := asm.Index(low[1:], MaxVGPRs-1)
		if !ok {
			return Operand{}, fmt.Errorf("bad VGPR %q (v0..v%d)", s, MaxVGPRs-1)
		}
		return V(n), nil
	}
	if strings.HasPrefix(low, "s") {
		n, ok := asm.Index(low[1:], MaxSGPRs-1)
		if !ok {
			return Operand{}, fmt.Errorf("bad SGPR %q (s0..s%d)", s, MaxSGPRs-1)
		}
		return S(n), nil
	}
	bits, err := asm.Literal(s)
	return Imm(bits), err
}

func parseVReg(s string) (Operand, error) {
	o, err := parseOperand(s)
	if err != nil {
		return o, err
	}
	if o.Kind != OperandVReg {
		return o, fmt.Errorf("operand %q must be a VGPR", s)
	}
	return o, nil
}

func parse64(s string) (Operand, error) {
	o, err := parseOperand(s)
	if err != nil {
		return o, err
	}
	switch o.Kind {
	case OperandSReg64, OperandVCC, OperandEXEC, OperandImm: // a literal is sign/zero-extended to 64 bits
		return o, nil
	default:
		return o, fmt.Errorf("operand %q is not a 64-bit scalar", s)
	}
}
