package siasm

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/simt"
)

const testKernel = `
.kernel k
.lds 256
    s_load_dword s4, karg[0]
    s_load_dword s5, karg[1]
    s_mul_i32 s6, s12, 64
    v_add_i32 v2, v0, s6
    v_cmp_lt_i32 vcc, v2, s5
    s_and_saveexec_b64 s[10:11], vcc
    s_cbranch_execz done
    v_lshlrev_b32 v3, 2, v2
    v_add_i32 v3, v3, s4
    buffer_load_dword v4, v3, 0
    v_mul_f32 v5, v4, 2.0f
    ds_write_b32 v3, v5, 16
    s_barrier
    ds_read_b32 v6, v3, 16
    buffer_store_dword v6, v3, 0
done:
    s_mov_b64 exec, s[10:11]
    s_endpgm
`

func TestAssembleBasics(t *testing.T) {
	p, err := Assemble(testKernel)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "k" || p.LDSBytes != 256 {
		t.Fatalf("metadata: %q %d", p.Name, p.LDSBytes)
	}
	if p.NumVGPRs != 7 {
		t.Fatalf("NumVGPRs = %d, want 7", p.NumVGPRs)
	}
	if p.NumKArgs != 2 {
		t.Fatalf("NumKArgs = %d, want 2", p.NumKArgs)
	}
	if p.NumSGPRs < 12 {
		t.Fatalf("NumSGPRs = %d must cover the preloaded workgroup ids", p.NumSGPRs)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := map[string]string{
		"missing kernel":  "s_endpgm\n",
		"no endpgm":       ".kernel k\ns_nop\n",
		"bad mnemonic":    ".kernel k\nv_frob_b32 v0, v1\ns_endpgm\n",
		"bad pair":        ".kernel k\ns_mov_b64 s[3:5], exec\ns_endpgm\n",
		"undefined label": ".kernel k\ns_branch off\ns_endpgm\n",
		"vgpr range":      ".kernel k\nv_mov_b32 v300, 0\ns_endpgm\n",
		"sgpr range":      ".kernel k\ns_mov_b32 s200, 0\ns_endpgm\n",
		"vcmp not vcc":    ".kernel k\nv_cmp_lt_i32 s0, v0, v1\ns_endpgm\n",
		"scalar f32 cmp":  ".kernel k\ns_cmp_lt_f32 s0, s1\ns_endpgm\n",
		"bad karg":        ".kernel k\ns_load_dword s0, s1\ns_endpgm\n",
		"imm dest 64":     ".kernel k\ns_mov_b64 5, exec\ns_endpgm\n",
		// An index is decimal digits: strconv.Atoi used to let a sign through.
		"signed pair low":  ".kernel k\ns_mov_b64 s[+10:11], exec\ns_endpgm\n",
		"signed pair high": ".kernel k\ns_mov_b64 s[10:+11], exec\ns_endpgm\n",
		"signed karg":      ".kernel k\ns_load_dword s4, karg[+0]\ns_endpgm\n",
		"signed .lds":      ".kernel k\n.lds +64\ns_endpgm\n",
		"signed @N target": ".kernel k\ns_branch @+1\ns_endpgm\n",
	}
	for name, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("%s: expected assembly error", name)
		}
	}
}

func TestCmpMnemonicVariants(t *testing.T) {
	p, err := Assemble(".kernel k\nv_cmp_lg_u32 vcc, v0, v1\ns_endpgm\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[0].Cond != CondNE || p.Instrs[0].CmpTy != CmpU32 {
		t.Fatalf("lg/u32 parsed as %v/%v", p.Instrs[0].Cond, p.Instrs[0].CmpTy)
	}
}

func TestFloatLiteral(t *testing.T) {
	p, err := Assemble(".kernel k\nv_mov_b32 v1, -2.5f\ns_endpgm\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float32frombits(p.Instrs[0].Src[0].Imm); got != -2.5 {
		t.Fatalf("-2.5f parsed as %v", got)
	}
}

func TestMemOffsets(t *testing.T) {
	p, err := Assemble(".kernel k\nds_read_b32 v1, v2, 64\nbuffer_store_dword v1, v2, -4\ns_endpgm\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[0].MemOff != 64 || p.Instrs[1].MemOff != -4 {
		t.Fatalf("offsets %d %d", p.Instrs[0].MemOff, p.Instrs[1].MemOff)
	}
}

func TestWaitcntAccepted(t *testing.T) {
	// s_waitcnt carries count syntax on real SI; it must parse as a hint.
	if _, err := Assemble(".kernel k\ns_waitcnt vmcnt(0)\ns_endpgm\n"); err != nil {
		t.Fatal(err)
	}
}

func TestLabelVsRegisterPair(t *testing.T) {
	// The ':' inside s[10:11] must not be parsed as a label.
	p, err := Assemble(".kernel k\nl:\ns_mov_b64 s[10:11], exec\ns_branch l\ns_endpgm\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[1].Target != 0 {
		t.Fatalf("branch target %d, want 0", p.Instrs[1].Target)
	}
}

// eval applies a comparison through simt.Compare, as amdsim does: Cond
// and CmpType list simt's conditions and types in simt's order.
func eval(c Cond, ty CmpType, a, b uint32) bool {
	return simt.Compare(simt.Cond(c), simt.CmpType(ty), a, b)
}

func TestCondOrderIsSimts(t *testing.T) {
	if CondEQ != Cond(simt.CondEQ) || CondNE != Cond(simt.CondNE) || CondLT != Cond(simt.CondLT) ||
		CondLE != Cond(simt.CondLE) || CondGT != Cond(simt.CondGT) || CondGE != Cond(simt.CondGE) {
		t.Error("siasm.Cond is not in simt.Cond's order")
	}
	if CmpI32 != CmpType(simt.CmpI32) || CmpU32 != CmpType(simt.CmpU32) || CmpF32 != CmpType(simt.CmpF32) {
		t.Error("siasm.CmpType is not in simt.CmpType's order")
	}
}

func TestCondEval(t *testing.T) {
	if !eval(CondLT, CmpI32, uint32(0xFFFFFFFF), 1) { // -1 < 1 signed
		t.Fatal("signed compare broken")
	}
	if eval(CondLT, CmpU32, 0xFFFFFFFF, 1) { // max > 1 unsigned
		t.Fatal("unsigned compare broken")
	}
	nan := math.Float32bits(float32(math.NaN()))
	one := math.Float32bits(1)
	if eval(CondEQ, CmpF32, nan, one) || eval(CondLT, CmpF32, nan, one) {
		t.Fatal("NaN ordered compare must be false")
	}
	if !eval(CondNE, CmpF32, nan, one) {
		t.Fatal("NaN NE must be true")
	}
}

func TestCondEvalProperty(t *testing.T) {
	if err := quick.Check(func(a, b uint32) bool {
		for _, ty := range []CmpType{CmpI32, CmpU32} {
			if eval(CondLT, ty, a, b) != !eval(CondGE, ty, a, b) {
				return false
			}
			if eval(CondEQ, ty, a, b) != !eval(CondNE, ty, a, b) {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

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

func TestOpClassCoverage(t *testing.T) {
	want := map[Opcode]Class{
		OpVRcpF: ClassSFU, OpVExpF: ClassSFU,
		OpDSRead: ClassLDS, OpDSWrite: ClassLDS,
		OpBufLoad: ClassGlobal, OpSLoadDW: ClassGlobal,
		OpSBranch: ClassControl, OpSBarrier: ClassBarrier,
		OpVAddF: ClassVector, OpSAdd: ClassScalar,
	}
	for op, cl := range want {
		if OpClass(op) != cl {
			t.Errorf("OpClass(%v) = %v, want %v", op, OpClass(op), cl)
		}
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAssemble did not panic")
		}
	}()
	MustAssemble("nope")
}

// opcodeSamples is one well-formed instruction per opcode.
var opcodeSamples = map[Opcode]string{
	OpSNop: "s_nop", OpSWaitcnt: "s_waitcnt", OpSBarrier: "s_barrier", OpSEndpgm: "s_endpgm",
	OpSMov32: "s_mov_b32 s1, 5", OpSAdd: "s_add_i32 s1, s2, 3", OpSSub: "s_sub_i32 s1, s2, s3",
	OpSMul: "s_mul_i32 s1, s2, s3", OpSAnd32: "s_and_b32 s1, s2, s3", OpSOr32: "s_or_b32 s1, s2, s3",
	OpSXor32: "s_xor_b32 s1, s2, s3", OpSLshl: "s_lshl_b32 s1, s2, 2", OpSLshr: "s_lshr_b32 s1, s2, 2",
	OpSMin: "s_min_i32 s1, s2, s3", OpSMax: "s_max_i32 s1, s2, s3",
	OpSCmp: "s_cmp_ge_u32 s1, 4", OpSLoadDW: "s_load_dword s4, karg[2]",
	OpSMov64: "s_mov_b64 s[2:3], exec", OpSNot64: "s_not_b64 vcc, vcc",
	OpSAnd64: "s_and_b64 exec, exec, s[2:3]", OpSOr64: "s_or_b64 exec, exec, vcc",
	OpSXor64: "s_xor_b64 vcc, vcc, -1", OpSAndn264: "s_andn2_b64 exec, s[4:5], exec",
	OpSAndSaveexec: "s_and_saveexec_b64 s[2:3], vcc", OpSOrSaveexec: "s_or_saveexec_b64 s[2:3], s[4:5]",
	OpSBranch: "s_branch @0", OpSCBranch: "s_cbranch_vccnz @1",
	OpVMov: "v_mov_b32 v1, 1.0f", OpVRcpF: "v_rcp_f32 v1, v2", OpVSqrtF: "v_sqrt_f32 v1, v2",
	OpVExpF: "v_exp_f32 v1, v2", OpVLogF: "v_log_f32 v1, v2",
	OpVCvtFI: "v_cvt_f32_i32 v1, v2", OpVCvtIF: "v_cvt_i32_f32 v1, v2",
	OpVAddI: "v_add_i32 v1, v2, s3", OpVSubI: "v_sub_i32 v1, v2, 1", OpVMulI: "v_mul_i32 v1, v2, v3",
	OpVMinI: "v_min_i32 v1, v2, v3", OpVMaxI: "v_max_i32 v1, v2, v3",
	OpVAnd: "v_and_b32 v1, v2, 0xff", OpVOr: "v_or_b32 v1, v2, v3", OpVXor: "v_xor_b32 v1, v2, v3",
	OpVLshlrev: "v_lshlrev_b32 v1, 2, v2", OpVLshrrev: "v_lshrrev_b32 v1, 2, v2",
	OpVAddF: "v_add_f32 v1, v2, v3", OpVSubF: "v_sub_f32 v1, v2, v3", OpVMulF: "v_mul_f32 v1, v2, 0.5f",
	OpVMacF: "v_mac_f32 v1, v2, v3", OpVMinF: "v_min_f32 v1, v2, v3", OpVMaxF: "v_max_f32 v1, v2, v3",
	OpVCmp: "v_cmp_lt_f32 vcc, v1, v2", OpVCndmask: "v_cndmask_b32 v1, v2, v3, vcc",
	OpDSRead: "ds_read_b32 v1, v2, 16", OpDSWrite: "ds_write_b32 v1, v2",
	OpBufLoad: "buffer_load_dword v1, v2", OpBufStor: "buffer_store_dword v1, v2, -4",
}

// TestOneSpellingPerOpcode: the disassembler prints one fixed mnemonic per
// opcode, and that spelling assembles back to the opcode. The reverse
// table used to be filled by ranging over a map in which three spellings
// shared OpVMulI, so the same program disassembled differently from one
// process to the next.
func TestOneSpellingPerOpcode(t *testing.T) {
	for i := 0; i < 100; i++ {
		if m := canonicalMnemonics(); !reflect.DeepEqual(m, mnemonicOf) {
			t.Fatalf("reverse table differs between builds:\n%v\n%v", m, mnemonicOf)
		}
	}
	if len(mnemonicOf) != len(mnemonics) {
		t.Fatalf("%d spellings for %d opcodes: a second spelling belongs in aliases", len(mnemonics), len(mnemonicOf))
	}
	for alias, canon := range aliases {
		if _, ok := mnemonics[alias]; ok {
			t.Errorf("alias %s is also a canonical spelling", alias)
		}
		if _, ok := mnemonics[canon]; !ok {
			t.Errorf("alias %s names unknown mnemonic %s", alias, canon)
		}
	}
	for op := Opcode(0); op <= OpBufStor; op++ {
		sample, ok := opcodeSamples[op]
		if !ok {
			t.Errorf("opcode %d has no sample instruction", op)
			continue
		}
		p, err := Assemble(".kernel k\n" + sample + "\ns_endpgm\n")
		if err != nil {
			t.Errorf("opcode %d: %v", op, err)
			continue
		}
		if p.Instrs[0].Op != op {
			t.Errorf("%q assembles to opcode %d, want %d", sample, p.Instrs[0].Op, op)
		}
		text := p.Instrs[0].String()
		q, err := Assemble(".kernel k\n" + text + "\ns_endpgm\n")
		if err != nil {
			t.Errorf("%q disassembles to %q: %v", sample, text, err)
			continue
		}
		if q.Instrs[0].Op != op || q.Instrs[0].String() != text {
			t.Errorf("%q: %q reassembles to opcode %d, %q", sample, text, q.Instrs[0].Op, q.Instrs[0].String())
		}
	}
	for _, mn := range []string{"v_mul_i32", "v_mul_lo_i32", "v_mul_lo_u32"} {
		p, err := Assemble(".kernel k\n" + mn + " v1, v0, v0\ns_endpgm\n")
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Instrs[0].String(); got != "v_mul_i32 v1, v0, v0" {
			t.Errorf("%s disassembles as %q", mn, got)
		}
	}
}
