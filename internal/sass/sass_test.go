package sass

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/simt"
)

const testKernel = `
.kernel k
.shared 128
    S2R R0, SR_TID.X
    MOV R1, c[0]
    ISETP.GE P0, R0, c[1]
@P0 EXIT
    SSY join
@!P0 BRA other
    MOV R2, 1
    SYNC
other:
    MOV R2, 2
    SYNC
join:
    SHL R3, R0, 2
    IADD R4, R3, R1
    LDG R5, [R4+16]
    FADD R6, R5, 1.5f
    FFMA R7, R5, R6, R6
    STS [R3], R7
    BAR.SYNC
    LDS R8, [R3-0]
    STG [R4], R8
    EXIT
`

func TestAssembleBasics(t *testing.T) {
	p, err := Assemble(testKernel)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "k" {
		t.Fatalf("name %q", p.Name)
	}
	if p.SharedBytes != 128 {
		t.Fatalf("shared %d", p.SharedBytes)
	}
	if p.NumRegs != 9 {
		t.Fatalf("NumRegs = %d, want 9", p.NumRegs)
	}
	if p.NumParams != 2 {
		t.Fatalf("NumParams = %d, want 2", p.NumParams)
	}
	// Branch targets resolved.
	for _, in := range p.Instrs {
		if in.Op == OpBRA || in.Op == OpSSY {
			if in.Target <= 0 || in.Target >= len(p.Instrs) {
				t.Fatalf("unresolved target %d in %s", in.Target, in.String())
			}
		}
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := map[string]string{
		"missing kernel":  "MOV R0, 1\nEXIT\n",
		"no exit":         ".kernel k\nMOV R0, 1\n",
		"empty":           ".kernel k\n",
		"bad mnemonic":    ".kernel k\nFROB R0, 1\nEXIT\n",
		"bad register":    ".kernel k\nMOV R999, 1\nEXIT\n",
		"undefined label": ".kernel k\nBRA nowhere\nEXIT\n",
		"duplicate label": ".kernel k\nx:\nx:\nEXIT\n",
		"write PT":        ".kernel k\nISETP.EQ PT, R0, 1\nEXIT\n",
		"bad operand cnt": ".kernel k\nIADD R0, R1\nEXIT\n",
		"bad immediate":   ".kernel k\nMOV R0, zzz\nEXIT\n",
		"bad directive":   ".kernel k\n.bogus 3\nEXIT\n",
		"dup kernel":      ".kernel k\n.kernel j\nEXIT\n",
		"bad guard":       ".kernel k\n@Q0 MOV R0, 1\nEXIT\n",
		"bad mem operand": ".kernel k\nLDG R0, R1\nEXIT\n",
		// An index is decimal digits, a memory offset one sign and an
		// unsigned literal: strconv.Atoi used to let a second sign through.
		"signed register":  ".kernel k\nMOV R+5, 1\nEXIT\n",
		"signed guard":     ".kernel k\n@P+1 MOV R0, 1\nEXIT\n",
		"signed constant":  ".kernel k\nMOV R0, c[+1]\nEXIT\n",
		"signed .shared":   ".kernel k\n.shared +64\nEXIT\n",
		"signed @N target": ".kernel k\nBRA @+1\nEXIT\n",
		"offset two signs": ".kernel k\nLDG R0, [R1--4]\nEXIT\n",
		"offset +-":        ".kernel k\nLDG R0, [R1+-4]\nEXIT\n",
	}
	for name, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("%s: expected assembly error", name)
		}
	}
}

func TestFloatImmediateEncoding(t *testing.T) {
	p, err := Assemble(".kernel k\nMOV R0, 1.5f\nMOV R1, -0.25f\nEXIT\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float32frombits(p.Instrs[0].Src[0].Imm); got != 1.5 {
		t.Fatalf("1.5f parsed as %v", got)
	}
	if got := math.Float32frombits(p.Instrs[1].Src[0].Imm); got != -0.25 {
		t.Fatalf("-0.25f parsed as %v", got)
	}
}

func TestHexAndNegativeImmediates(t *testing.T) {
	p, err := Assemble(".kernel k\nMOV R0, 0x7F7FFFFF\nMOV R1, -1\nEXIT\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[0].Src[0].Imm != 0x7F7FFFFF {
		t.Fatalf("hex literal: %#x", p.Instrs[0].Src[0].Imm)
	}
	if p.Instrs[1].Src[0].Imm != 0xFFFFFFFF {
		t.Fatalf("negative literal: %#x", p.Instrs[1].Src[0].Imm)
	}
}

func TestMemOperandOffsets(t *testing.T) {
	p, err := Assemble(".kernel k\nLDG R0, [R1+256]\nLDG R2, [R3-8]\nLDG R4, [RZ+64]\nEXIT\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[0].MemOff != 256 || p.Instrs[1].MemOff != -8 {
		t.Fatalf("offsets: %d %d", p.Instrs[0].MemOff, p.Instrs[1].MemOff)
	}
	if p.Instrs[2].MemBase != RZ {
		t.Fatalf("RZ base not recognized")
	}
}

func TestRZNotCountedInRegs(t *testing.T) {
	p, err := Assemble(".kernel k\nMOV R0, RZ\nEXIT\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumRegs != 1 {
		t.Fatalf("NumRegs = %d, want 1 (RZ must not allocate)", p.NumRegs)
	}
}

// TestDisassembleReassemble: disassembly must reassemble to the same
// instruction stream for programs without branches (branch targets print
// as indices, not labels).
func TestDisassembleStable(t *testing.T) {
	p, err := Assemble(testKernel)
	if err != nil {
		t.Fatal(err)
	}
	text := p.Disassemble()
	for i, in := range p.Instrs {
		if !strings.Contains(text, in.String()) {
			t.Fatalf("disassembly missing instruction %d: %s", i, in.String())
		}
	}
}

// condOf is what nvsim evaluates each comparison as.
var condOf = map[Cmp]simt.Cond{
	CmpLT: simt.CondLT, CmpLE: simt.CondLE, CmpGT: simt.CondGT,
	CmpGE: simt.CondGE, CmpEQ: simt.CondEQ, CmpNE: simt.CondNE,
}

// evalI and evalF apply an ISETP and an FSETP comparison through
// simt.Compare, as nvsim does.
func evalI(c Cmp, a, b int32) bool {
	return simt.Compare(condOf[c], simt.CmpI32, uint32(a), uint32(b))
}

func evalF(c Cmp, a, b float32) bool {
	return simt.Compare(condOf[c], simt.CmpF32, math.Float32bits(a), math.Float32bits(b))
}

func TestCmpEval(t *testing.T) {
	if !evalI(CmpLT, -1, 2) || evalI(CmpLT, 2, -1) {
		t.Fatal("signed LT broken")
	}
	if !evalI(CmpGE, 5, 5) {
		t.Fatal("GE broken")
	}
	nan := float32(math.NaN())
	for _, c := range []Cmp{CmpLT, CmpLE, CmpGT, CmpGE, CmpEQ} {
		if evalF(c, nan, 1) {
			t.Fatalf("%v with NaN must be false", c)
		}
	}
	if !evalF(CmpNE, nan, 1) {
		t.Fatal("NE with NaN must be true")
	}
}

// Property: an integer comparison is consistent with its negation pairs.
func TestCmpEvalProperty(t *testing.T) {
	if err := quick.Check(func(a, b int32) bool {
		return evalI(CmpLT, a, b) == !evalI(CmpGE, a, b) &&
			evalI(CmpLE, a, b) == !evalI(CmpGT, a, b) &&
			evalI(CmpEQ, a, b) == !evalI(CmpNE, a, b)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGuardString(t *testing.T) {
	g := Guard{Pred: PT}
	if g.String() != "" || !g.Unguarded() {
		t.Fatal("PT guard must render empty")
	}
	g = Guard{Pred: 2, Neg: true}
	if g.String() != "@!P2 " {
		t.Fatalf("guard renders %q", g.String())
	}
}

func TestOpClassCoverage(t *testing.T) {
	want := map[Opcode]Class{
		OpRCP: ClassSFU, OpEX2: ClassSFU,
		OpLDS: ClassLocalMem, OpSTS: ClassLocalMem,
		OpLDG: ClassGlobalMem, OpSTG: ClassGlobalMem,
		OpBRA: ClassControl, OpBAR: ClassBarrier,
		OpIADD: ClassALU, OpFFMA: ClassALU,
	}
	for op, cl := range want {
		if OpClass(op) != cl {
			t.Errorf("OpClass(%v) = %v, want %v", op, OpClass(op), cl)
		}
	}
}

// Property: assembling a random well-formed ALU program computes NumRegs
// as max register index + 1.
func TestNumRegsProperty(t *testing.T) {
	if err := quick.Check(func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var b strings.Builder
		b.WriteString(".kernel q\n")
		maxIdx := 0
		for _, v := range raw {
			r := int(v) % 64
			if r > maxIdx {
				maxIdx = r
			}
			b.WriteString("IADD R")
			b.WriteString(itoa(r))
			b.WriteString(", RZ, 1\n")
		}
		b.WriteString("EXIT\n")
		p, err := Assemble(b.String())
		if err != nil {
			return false
		}
		return p.NumRegs == maxIdx+1
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var d []byte
	for n > 0 {
		d = append([]byte{byte('0' + n%10)}, d...)
		n /= 10
	}
	return string(d)
}

func TestLabelOnSameLine(t *testing.T) {
	p, err := Assemble(".kernel k\nstart: MOV R0, 1\nBRA start\nEXIT\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[1].Target != 0 {
		t.Fatalf("label-on-line target = %d", p.Instrs[1].Target)
	}
}

func TestCommentsStripped(t *testing.T) {
	p, err := Assemble(".kernel k\nMOV R0, 1 ; trailing\n// whole line\nEXIT\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Instrs) != 2 {
		t.Fatalf("got %d instructions", len(p.Instrs))
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAssemble did not panic on bad source")
		}
	}()
	MustAssemble("garbage")
}
