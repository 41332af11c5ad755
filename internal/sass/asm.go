package sass

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/asm"
)

var dialect = asm.Dialect{Name: "sass", Local: ".shared"}

// operand parses one operand string into its place in the instruction; a
// shape is the operand kinds of a mnemonic in source order. scan is there
// for the one kind that looks outside its own text, the branch label.
type operand func(in *Instr, s string, scan *asm.Source) error

func dst(in *Instr, s string, _ *asm.Source) (err error) {
	in.Dst, err = parseReg(s)
	return err
}

// src builds the kind "register, c[n] or immediate into Src[i]".
func src(i int) operand {
	return func(in *Instr, s string, _ *asm.Source) (err error) {
		in.Src[i], err = parseSrc(s)
		return err
	}
}

func pdst(in *Instr, s string, _ *asm.Source) (err error) {
	if in.PDst, err = parsePred(s); err == nil && in.PDst == PT {
		err = fmt.Errorf("cannot write PT")
	}
	return err
}

func psrc(in *Instr, s string, _ *asm.Source) (err error) {
	in.PSrc, err = parsePred(s)
	return err
}

// mem parses "[Rn]", "[Rn+imm]" or "[Rn-imm]": one sign, then an unsigned
// integer literal.
func mem(in *Instr, s string, _ *asm.Source) (err error) {
	inner, ok := asm.Bracket(s, "")
	if !ok {
		return fmt.Errorf("not a memory operand: %q", s)
	}
	reg, off := strings.TrimSpace(inner), ""
	sign := int32(1)
	// A leading '-' would belong to the register, which is invalid anyway.
	if i := strings.IndexAny(reg, "+-"); i > 0 {
		if reg[i] == '-' {
			sign = -1
		}
		reg, off = strings.TrimSpace(reg[:i]), strings.TrimSpace(reg[i+1:])
	}
	if in.MemBase, err = parseReg(reg); err != nil || off == "" {
		return err
	}
	v, err := strconv.ParseUint(off, 0, 31)
	if err != nil {
		return fmt.Errorf("bad memory offset %q", off)
	}
	in.MemOff = sign * int32(v)
	return nil
}

func special(in *Instr, s string, _ *asm.Source) error {
	up := strings.ToUpper(s)
	for i, n := range srNames {
		if up == n {
			in.SR = SpecialReg(i)
			return nil
		}
	}
	return fmt.Errorf("unknown special register %q", s)
}

func label(in *Instr, s string, scan *asm.Source) (err error) {
	in.Target, err = scan.Target(s)
	return err
}

// The operand shapes of the ISA.
var (
	src0, src1, src2 = src(0), src(1), src(2)

	shapeUn    = []operand{dst, src0}             // OP Rd, src
	shapeBin   = []operand{dst, src0, src1}       // OP Rd, Ra, src
	shapeTern  = []operand{dst, src0, src1, src2} // OP Rd, Ra, src, src
	shapeSetp  = []operand{pdst, src0, src1}      // OP.cc Pd, Ra, src
	shapeSel   = []operand{dst, src0, src1, psrc} // SEL Rd, Ra, src, Pq
	shapeLoad  = []operand{dst, mem}              // OP Rd, [Ra+off]
	shapeStore = []operand{mem, src0}             // OP [Ra+off], Rb
	shapeS2R   = []operand{dst, special}          // S2R Rd, SR_*
	shapeLabel = []operand{label}                 // OP label
)

// mnemonics is every spelling the assembler accepts, upper-cased. A new
// mnemonic is one row here. A key that ends in '.' is a family whose
// comparison is the rest of the mnemonic (ISETP.GE).
var mnemonics = map[string]struct {
	op    Opcode
	shape []operand
}{
	"NOP": {OpNOP, nil}, "SYNC": {OpSYNC, nil}, "EXIT": {OpEXIT, nil},
	"BAR.SYNC": {OpBAR, nil}, "BAR": {OpBAR, nil},
	"BRA": {OpBRA, shapeLabel}, "SSY": {OpSSY, shapeLabel},
	"S2R": {OpS2R, shapeS2R},
	"MOV": {OpMOV, shapeUn}, "MOV32I": {OpMOV, shapeUn},
	"MUFU.RCP": {OpRCP, shapeUn}, "MUFU.EX2": {OpEX2, shapeUn},
	"MUFU.LG2": {OpLG2, shapeUn}, "MUFU.SQRT": {OpSQRT, shapeUn},
	"RCP": {OpRCP, shapeUn}, "EX2": {OpEX2, shapeUn},
	"LG2": {OpLG2, shapeUn}, "SQRT": {OpSQRT, shapeUn},
	"I2F": {OpI2F, shapeUn}, "F2I": {OpF2I, shapeUn},
	"IADD": {OpIADD, shapeBin}, "ISUB": {OpISUB, shapeBin}, "IMUL": {OpIMUL, shapeBin},
	"IMIN": {OpIMIN, shapeBin}, "IMAX": {OpIMAX, shapeBin},
	"AND": {OpAND, shapeBin}, "OR": {OpOR, shapeBin}, "XOR": {OpXOR, shapeBin},
	"SHL": {OpSHL, shapeBin}, "SHR": {OpSHR, shapeBin},
	"FADD": {OpFADD, shapeBin}, "FSUB": {OpFSUB, shapeBin}, "FMUL": {OpFMUL, shapeBin},
	"FMIN": {OpFMIN, shapeBin}, "FMAX": {OpFMAX, shapeBin},
	"IMAD": {OpIMAD, shapeTern}, "FFMA": {OpFFMA, shapeTern},
	"ISETP.": {OpISETP, shapeSetp}, "FSETP.": {OpFSETP, shapeSetp},
	"SEL": {OpSEL, shapeSel},
	"LDG": {OpLDG, shapeLoad}, "LDS": {OpLDS, shapeLoad},
	"STG": {OpSTG, shapeStore}, "STS": {OpSTS, shapeStore},
}

// Assemble parses a SASS-like kernel source into a Program. The line
// grammar (.kernel, .shared, labels, comments) and the literal syntax are
// package asm's; an instruction is
//
//	[@[!]Pn] MNEMONIC operand, ...
//
// with register operands R0..R127 or RZ, predicates P0..P5 or PT, kernel
// parameters c[n], immediates, memory operands [Rn], [Rn+imm] or [Rn-imm],
// special registers SR_*, and labels or @N as branch targets.
func Assemble(text string) (*Program, error) {
	scan, err := dialect.Scan(text)
	if err != nil {
		return nil, err
	}
	p := &Program{Name: scan.Name, SharedBytes: scan.LocalBytes, Instrs: make([]Instr, len(scan.Stmts))}
	maxReg, maxParam := -1, -1
	noteReg := func(r uint8) {
		if r != RZ {
			maxReg = max(maxReg, int(r))
		}
	}
	hasExit := false
	for i, st := range scan.Stmts {
		in := &p.Instrs[i]
		*in = Instr{Line: st.Line, Guard: Guard{Pred: PT}, Dst: RZ, PDst: PT, PSrc: PT}
		if err := parseInstr(in, st.Text, scan); err != nil {
			return nil, dialect.Errorf(st.Line, "%v", err)
		}
		noteReg(in.Dst)
		noteReg(in.MemBase)
		for _, o := range in.Src {
			switch o.Kind {
			case OperandReg:
				noteReg(o.Reg)
			case OperandConst:
				maxParam = max(maxParam, int(o.CIdx))
			}
		}
		hasExit = hasExit || in.Op == OpEXIT
	}
	if !hasExit {
		return nil, fmt.Errorf("sass: %s: program has no EXIT", p.Name)
	}
	if maxReg+1 > MaxRegs {
		return nil, fmt.Errorf("sass: %s: uses %d registers, max %d", p.Name, maxReg+1, MaxRegs)
	}
	p.NumRegs = max(maxReg+1, 1)
	p.NumParams = maxParam + 1
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

// parseInstr fills in from one statement: it peels what SASS encodes
// around and in the mnemonic — the guard prefix and the .cc suffix — looks
// the rest up, and runs the mnemonic's shape over the operands.
func parseInstr(in *Instr, text string, scan *asm.Source) error {
	if g, ok := strings.CutPrefix(text, "@"); ok {
		if g, text = asm.Cut(g); text == "" {
			return fmt.Errorf("guard without instruction")
		}
		g, in.Guard.Neg = strings.CutPrefix(g, "!")
		pr, err := parsePred(g)
		if err != nil {
			return fmt.Errorf("bad guard predicate %q", g)
		}
		in.Guard.Pred = pr
	}
	mn, ops := asm.Cut(text)
	mn = strings.ToUpper(mn)
	args := asm.Fields(ops)

	family := mn[:strings.IndexByte(mn, '.')+1] // "ISETP." of ISETP.GE, "" without a dot
	sp, ok := mnemonics[family]
	if ok {
		cc := slices.Index(cmpNames[:], mn[len(family):])
		if cc < 0 {
			return fmt.Errorf("%s: unknown comparison %q", mn, mn[len(family):])
		}
		in.Cmp = Cmp(cc)
	} else if sp, ok = mnemonics[mn]; !ok {
		return fmt.Errorf("unknown mnemonic %q", mn)
	}
	in.Op = sp.op
	if len(args) != len(sp.shape) {
		return fmt.Errorf("%s expects %d operands, got %d", mn, len(sp.shape), len(args))
	}
	for i, parse := range sp.shape {
		if err := parse(in, args[i], scan); err != nil {
			return fmt.Errorf("%s: %v", mn, err)
		}
	}
	return nil
}

func parseReg(s string) (uint8, error) {
	s = strings.ToUpper(s)
	if s == "RZ" {
		return RZ, nil
	}
	if len(s) < 2 || s[0] != 'R' {
		return 0, fmt.Errorf("not a register: %q", s)
	}
	n, ok := asm.Index(s[1:], MaxRegs-1)
	if !ok {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return uint8(n), nil
}

func parsePred(s string) (uint8, error) {
	s = strings.ToUpper(s)
	if s == "PT" {
		return PT, nil
	}
	if len(s) < 2 || s[0] != 'P' {
		return 0, fmt.Errorf("not a predicate: %q", s)
	}
	n, ok := asm.Index(s[1:], NumPreds-1)
	if !ok {
		return 0, fmt.Errorf("bad predicate %q", s)
	}
	return uint8(n), nil
}

// parseSrc parses a source operand: c[n], a register, or an immediate.
func parseSrc(s string) (Operand, error) {
	up := strings.ToUpper(s)
	if inner, ok := asm.Bracket(up, "C"); ok {
		n, ok := asm.Index(inner, 0xffff)
		if !ok {
			return Operand{}, fmt.Errorf("bad constant operand %q", s)
		}
		return C(n), nil
	}
	if strings.HasPrefix(up, "R") {
		r, err := parseReg(up)
		return R(int(r)), err
	}
	bits, err := asm.Literal(s)
	return Imm(bits), err
}
