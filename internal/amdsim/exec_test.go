package amdsim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/chips"
	"repro/internal/gpu"
	"repro/internal/siasm"
)

// runScalarSI executes a kernel with one wavefront lane writing v31 to
// OUT (karg[0]) and returns the stored word.
func runScalarSI(t *testing.T, body string, extraArgs ...uint32) uint32 {
	t.Helper()
	src := ".kernel t\n" + body + `
    s_load_dword s30, karg[0]
    v_mov_b32 v30, s30
    buffer_store_dword v31, v30, 0
    s_endpgm
`
	prog, err := siasm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v\n%s", err, src)
	}
	d, err := New(chips.MiniAMD())
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.Mem().Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	args := append([]uint32{out}, extraArgs...)
	err = d.Launch(gpu.LaunchSpec{Kernel: prog, Grid: gpu.D1(1), Group: gpu.D1(1), Args: args})
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	v, err := d.Mem().Load32(out)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestVectorALUSemantics(t *testing.T) {
	f32 := math.Float32bits
	cases := []struct {
		name string
		body string
		want uint32
	}{
		{"vadd", "v_mov_b32 v1, 7\nv_add_i32 v31, v1, -3", 4},
		{"vsub-wrap", "v_mov_b32 v1, 0\nv_sub_i32 v31, v1, 1", 0xFFFFFFFF},
		{"vmul", "v_mov_b32 v1, -4\nv_mul_i32 v31, v1, 3", uint32(0xFFFFFFF4)},
		{"vmin", "v_mov_b32 v1, -2\nv_min_i32 v31, v1, 1", 0xFFFFFFFE},
		{"vmax", "v_mov_b32 v1, -2\nv_max_i32 v31, v1, 1", 1},
		{"lshlrev", "v_mov_b32 v1, 3\nv_lshlrev_b32 v31, 4, v1", 48}, // D = S1 << S0
		{"lshrrev", "v_mov_b32 v1, 0x80000000\nv_lshrrev_b32 v31, 31, v1", 1},
		{"vaddf", "v_mov_b32 v1, 1.5f\nv_add_f32 v31, v1, 2.25f", f32(3.75)},
		{"vmac", "v_mov_b32 v31, 4.0f\nv_mov_b32 v1, 2.0f\nv_mac_f32 v31, v1, 3.0f", f32(10)},
		{"rcp", "v_mov_b32 v1, 4.0f\nv_rcp_f32 v31, v1", f32(0.25)},
		{"exp2", "v_mov_b32 v1, 3.0f\nv_exp_f32 v31, v1", f32(8)},
		{"log2", "v_mov_b32 v1, 8.0f\nv_log_f32 v31, v1", f32(3)},
		{"sqrt", "v_mov_b32 v1, 9.0f\nv_sqrt_f32 v31, v1", f32(3)},
		{"cvtfi", "v_mov_b32 v1, -7\nv_cvt_f32_i32 v31, v1", f32(-7)},
		{"cvtif", "v_mov_b32 v1, -2.75f\nv_cvt_i32_f32 v31, v1", 0xFFFFFFFE},
		{"minf-nan", "v_mov_b32 v1, 0x7FC00000\nv_min_f32 v31, v1, 3.0f", f32(3)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := runScalarSI(t, c.body); got != c.want {
				t.Fatalf("got %#x, want %#x", got, c.want)
			}
		})
	}
}

func TestScalarALUSemantics(t *testing.T) {
	cases := []struct {
		name string
		body string
		want uint32
	}{
		{"sadd", "s_mov_b32 s1, 40\ns_add_i32 s2, s1, 2\nv_mov_b32 v31, s2", 42},
		{"smul", "s_mov_b32 s1, -6\ns_mul_i32 s2, s1, 7\nv_mov_b32 v31, s2", uint32(0xFFFFFFD6)},
		{"smin", "s_mov_b32 s1, -6\ns_min_i32 s2, s1, 2\nv_mov_b32 v31, s2", uint32(0xFFFFFFFA)},
		{"slshl", "s_mov_b32 s1, 3\ns_lshl_b32 s2, s1, 4\nv_mov_b32 v31, s2", 48},
		{"sand", "s_mov_b32 s1, 0xFF\ns_and_b32 s2, s1, 0x0F\nv_mov_b32 v31, s2", 0x0F},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := runScalarSI(t, c.body); got != c.want {
				t.Fatalf("got %#x, want %#x", got, c.want)
			}
		})
	}
}

func TestSCmpAndBranch(t *testing.T) {
	body := `
    v_mov_b32 v31, 1
    s_mov_b32 s1, 5
    s_cmp_lt_i32 s1, 10
    s_cbranch_scc0 skip
    v_mov_b32 v31, 2
skip:
`
	if got := runScalarSI(t, body); got != 2 {
		t.Fatalf("scc1 path not taken: %d", got)
	}
}

func TestExecMaskSaveRestore(t *testing.T) {
	// Lanes < 32 take the if; exec must be restored after.
	src := `
.kernel m
    s_load_dword s4, karg[0]
    v_mov_b32 v2, 0
    v_cmp_lt_i32 vcc, v0, 32
    s_and_saveexec_b64 s[10:11], vcc
    s_cbranch_execz done
    v_mov_b32 v2, 1
done:
    s_mov_b64 exec, s[10:11]
    v_lshlrev_b32 v3, 2, v0
    v_add_i32 v3, v3, s4
    buffer_store_dword v2, v3, 0
    s_endpgm
`
	prog := siasm.MustAssemble(src)
	d, err := New(chips.MiniAMD())
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.Mem().Alloc(4 * 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Launch(gpu.LaunchSpec{Kernel: prog, Grid: gpu.D1(1), Group: gpu.D1(64), Args: []uint32{out}}); err != nil {
		t.Fatal(err)
	}
	got, err := d.Mem().ReadWords(out, 64)
	if err != nil {
		t.Fatal(err)
	}
	for lane, v := range got {
		want := uint32(0)
		if lane < 32 {
			want = 1
		}
		if v != want {
			t.Fatalf("lane %d: got %d want %d (exec restore broken)", lane, v, want)
		}
	}
}

func TestScalar64Ops(t *testing.T) {
	// Build a mask in s[10:11], invert and AND it against exec-like
	// values, then materialize a summary bit into v31.
	body := `
    s_mov_b64 s[10:11], -1
    s_not_b64 s[12:13], s[10:11]      ; zero
    s_or_b64 s[14:15], s[12:13], s[10:11]
    s_andn2_b64 s[16:17], s[14:15], s[10:11] ; all &^ all = 0
    v_mov_b32 v31, s16
`
	if got := runScalarSI(t, body); got != 0 {
		t.Fatalf("64-bit scalar chain: %#x", got)
	}
}

func TestCBranchVariants(t *testing.T) {
	// vccz taken when no lane matched.
	body := `
    v_mov_b32 v31, 7
    v_mov_b32 v1, 5
    v_cmp_gt_i32 vcc, v1, 100
    s_cbranch_vccz out
    v_mov_b32 v31, 8
out:
`
	if got := runScalarSI(t, body); got != 7 {
		t.Fatalf("vccz branch not taken: %d", got)
	}
}

func TestLDSOOBIsError(t *testing.T) {
	d, err := New(chips.MiniAMD())
	if err != nil {
		t.Fatal(err)
	}
	prog := siasm.MustAssemble(".kernel oob\n.lds 64\nv_mov_b32 v1, 64\nds_read_b32 v2, v1, 0\ns_endpgm\n")
	if err := d.Launch(gpu.LaunchSpec{Kernel: prog, Grid: gpu.D1(1), Group: gpu.D1(64)}); err == nil {
		t.Fatal("LDS access beyond the group allocation accepted")
	}
}

func TestWildBufferAccessIsError(t *testing.T) {
	d, err := New(chips.MiniAMD())
	if err != nil {
		t.Fatal(err)
	}
	prog := siasm.MustAssemble(".kernel wild\nv_mov_b32 v1, 0x3FFFFF0\nbuffer_load_dword v2, v1, 0\ns_endpgm\n")
	if err := d.Launch(gpu.LaunchSpec{Kernel: prog, Grid: gpu.D1(1), Group: gpu.D1(64)}); err == nil {
		t.Fatal("wild buffer load accepted")
	}
}

func TestPartialWavefrontValidMask(t *testing.T) {
	// 40 work-items: lanes 40..63 must not store.
	src := `
.kernel p
    s_load_dword s4, karg[0]
    v_lshlrev_b32 v1, 2, v0
    v_add_i32 v1, v1, s4
    v_mov_b32 v2, 1
    buffer_store_dword v2, v1, 0
    s_endpgm
`
	prog := siasm.MustAssemble(src)
	d, err := New(chips.MiniAMD())
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.Mem().Alloc(4 * 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Launch(gpu.LaunchSpec{Kernel: prog, Grid: gpu.D1(1), Group: gpu.D1(40), Args: []uint32{out}}); err != nil {
		t.Fatal(err)
	}
	got, err := d.Mem().ReadWords(out, 64)
	if err != nil {
		t.Fatal(err)
	}
	for lane, v := range got {
		want := uint32(0)
		if lane < 40 {
			want = 1
		}
		if v != want {
			t.Fatalf("lane %d: got %d want %d", lane, v, want)
		}
	}
}

// refVALU mirrors the simulator's integer vector ALU for the
// differential property test.
func refVALU(op string, a, b int32) uint32 {
	ua, ub := uint32(a), uint32(b)
	switch op {
	case "v_add_i32":
		return ua + ub
	case "v_sub_i32":
		return ua - ub
	case "v_mul_i32":
		return uint32(a * b)
	case "v_min_i32":
		if a < b {
			return ua
		}
		return ub
	case "v_max_i32":
		if a > b {
			return ua
		}
		return ub
	case "v_and_b32":
		return ua & ub
	case "v_or_b32":
		return ua | ub
	case "v_xor_b32":
		return ua ^ ub
	case "v_lshlrev_b32":
		return ub << (ua & 31)
	case "v_lshrrev_b32":
		return ub >> (ua & 31)
	default:
		panic(op)
	}
}

// TestRandomVectorProgramsMatchReference is the SI twin of nvsim's
// differential ALU property test.
func TestRandomVectorProgramsMatchReference(t *testing.T) {
	ops := []string{"v_add_i32", "v_sub_i32", "v_mul_i32", "v_min_i32", "v_max_i32",
		"v_and_b32", "v_or_b32", "v_xor_b32", "v_lshlrev_b32", "v_lshrrev_b32"}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(func(seedVals [4]int32, choices []uint8) bool {
		if len(choices) == 0 || len(choices) > 30 {
			return true
		}
		regs := [8]uint32{}
		var src strings.Builder
		for i, v := range seedVals {
			fmt.Fprintf(&src, "v_mov_b32 v%d, %d\n", i+1, v)
			regs[i+1] = uint32(v)
		}
		for i, ch := range choices {
			op := ops[int(ch)%len(ops)]
			ra := 1 + int(ch>>3)%4
			rb := 1 + int(ch>>5)%4
			rd := 1 + (i % 4)
			fmt.Fprintf(&src, "%s v%d, v%d, v%d\n", op, rd, ra, rb)
			regs[rd] = refVALU(op, int32(regs[ra]), int32(regs[rb]))
		}
		src.WriteString("v_mov_b32 v31, v1\n")
		got := runScalarSI(t, src.String())
		return got == regs[1]
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMultiWaveWorkgroupBarrier(t *testing.T) {
	// 128 work-items (2 wavefronts) communicate through the LDS across a
	// barrier: lane i reads what lane 127-i wrote.
	src := `
.kernel x
.lds 512
    s_load_dword s4, karg[0]
    v_lshlrev_b32 v1, 2, v0
    ds_write_b32 v1, v0, 0
    s_barrier
    v_sub_i32 v2, 127, v0
    v_lshlrev_b32 v2, 2, v2
    ds_read_b32 v3, v2, 0
    v_add_i32 v4, v1, s4
    buffer_store_dword v3, v4, 0
    s_endpgm
`
	prog := siasm.MustAssemble(src)
	d, err := New(chips.MiniAMD())
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.Mem().Alloc(4 * 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Launch(gpu.LaunchSpec{Kernel: prog, Grid: gpu.D1(1), Group: gpu.D1(128), Args: []uint32{out}}); err != nil {
		t.Fatal(err)
	}
	got, err := d.Mem().ReadWords(out, 128)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != uint32(127-i) {
			t.Fatalf("lane %d read %d, want %d", i, v, 127-i)
		}
	}
}

func TestStatsAndReset(t *testing.T) {
	d, err := New(chips.MiniAMD())
	if err != nil {
		t.Fatal(err)
	}
	prog := siasm.MustAssemble(".kernel c\nv_mov_b32 v1, 1\ns_endpgm\n")
	if err := d.Launch(gpu.LaunchSpec{Kernel: prog, Grid: gpu.D1(2), Group: gpu.D1(64)}); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Instructions != 4 { // 2 groups x 1 wave x 2 instructions
		t.Fatalf("instructions = %d, want 4", st.Instructions)
	}
	if st.LaneInstructions != 2*64+2 { // vector op counts lanes, endpgm counts 1
		t.Fatalf("lane instructions = %d", st.LaneInstructions)
	}
	d.Reset()
	if d.Stats().Cycles != 0 {
		t.Fatal("stats survive reset")
	}
}

// TestOpcodeWithoutLaneSemanticsFailsTheLaunch: an opcode that aluOf does
// not map, in or out of its range, ends the launch with an error, never
// with a panic.
func TestOpcodeWithoutLaneSemanticsFailsTheLaunch(t *testing.T) {
	for _, op := range []siasm.Opcode{200, -1} {
		prog := &siasm.Program{Name: "bad", NumVGPRs: 1, NumSGPRs: siasm.SRegWGIDY + 1,
			Instrs: []siasm.Instr{{Op: op}, {Op: siasm.OpSEndpgm}}}
		d, err := New(chips.MiniAMD())
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Launch(gpu.LaunchSpec{Kernel: prog, Grid: gpu.D1(1), Group: gpu.D1(64)}); err == nil {
			t.Errorf("opcode %d: launch succeeded", op)
		}
	}
}
