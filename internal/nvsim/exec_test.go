package nvsim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/chips"
	"repro/internal/gpu"
	"repro/internal/sass"
)

// runScalar executes a kernel with one thread and returns the word it
// stores to OUT (c[0]).
func runScalar(t *testing.T, body string, extraArgs ...uint32) uint32 {
	t.Helper()
	src := ".kernel t\n" + body + `
    MOV R30, c[0]
    STG [R30], R31
    EXIT
`
	prog, err := sass.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v\n%s", err, src)
	}
	d, err := New(chips.MiniNVIDIA())
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

func TestALUSemantics(t *testing.T) {
	f32 := math.Float32bits
	cases := []struct {
		name string
		body string
		want uint32
	}{
		{"iadd", "MOV R1, 7\nIADD R31, R1, -3", 4},
		{"isub-wrap", "MOV R1, 0\nISUB R31, R1, 1", 0xFFFFFFFF},
		{"imul-neg", "MOV R1, -4\nIMUL R31, R1, 3", uint32(0xFFFFFFFF4 & 0xFFFFFFFF)},
		{"imad", "MOV R1, 5\nIMAD R31, R1, 6, 7", 37},
		{"imin", "MOV R1, -2\nIMIN R31, R1, 1", 0xFFFFFFFE},
		{"imax", "MOV R1, -2\nIMAX R31, R1, 1", 1},
		{"and", "MOV R1, 0xF0F0\nAND R31, R1, 0xFF00", 0xF000},
		{"shl", "MOV R1, 3\nSHL R31, R1, 4", 48},
		{"shr-logical", "MOV R1, 0x80000000\nSHR R31, R1, 31", 1},
		{"shl-mask", "MOV R1, 1\nSHL R31, R1, 33", 2}, // shift amounts mod 32
		{"fadd", "MOV R1, 1.5f\nFADD R31, R1, 2.25f", f32(3.75)},
		{"ffma", "MOV R1, 2.0f\nFFMA R31, R1, 3.0f, 4.0f", f32(10)},
		{"rcp", "MOV R1, 4.0f\nMUFU.RCP R31, R1", f32(0.25)},
		{"ex2", "MOV R1, 3.0f\nMUFU.EX2 R31, R1", f32(8)},
		{"lg2", "MOV R1, 8.0f\nMUFU.LG2 R31, R1", f32(3)},
		{"sqrt", "MOV R1, 9.0f\nMUFU.SQRT R31, R1", f32(3)},
		{"i2f", "MOV R1, -7\nI2F R31, R1", f32(-7)},
		{"f2i", "MOV R1, -2.75f\nF2I R31, R1", uint32(0xFFFFFFFE)}, // trunc toward zero
		{"rz-reads-zero", "IADD R31, RZ, 5", 5},
		{"rz-dst-discards", "MOV R31, 9\nS2R RZ, SR_TID.X\nIADD RZ, R31, 1", 9}, // no scoreboard entry for RZ
		{"sel-true", "MOV R1, 1\nISETP.EQ P0, R1, 1\nMOV R2, 10\nSEL R31, R2, 20, P0", 10},
		{"sel-false", "MOV R1, 1\nISETP.EQ P0, R1, 2\nMOV R2, 10\nSEL R31, R2, 20, P0", 20},
		{"sel-pt", "MOV R2, 10\nSEL R31, R2, 20, PT", 10}, // PT is no index into the predicate file
		{"fmin-nan", "MOV R1, 0x7FC00000\nFMIN R31, R1, 3.0f", f32(3)},
		{"fmax-nan", "MOV R1, 0x7FC00000\nFMAX R31, R1, 3.0f", f32(3)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := runScalar(t, c.body); got != c.want {
				t.Fatalf("got %#x, want %#x", got, c.want)
			}
		})
	}
}

func TestF2ISaturation(t *testing.T) {
	// NaN -> 0; +huge -> MaxInt32; -huge -> MinInt32 (deterministic, since
	// fault-corrupted floats hit these paths).
	if got := runScalar(t, "MOV R1, 0x7FC00000\nF2I R31, R1"); got != 0 {
		t.Fatalf("NaN -> %#x", got)
	}
	if got := runScalar(t, "MOV R1, 0x7F000000\nF2I R31, R1"); got != math.MaxInt32 {
		t.Fatalf("+huge -> %#x", got)
	}
	if got := runScalar(t, "MOV R1, 0xFF000000\nF2I R31, R1"); int32(got) != math.MinInt32 {
		t.Fatalf("-huge -> %#x", got)
	}
}

func TestPredicatedExecution(t *testing.T) {
	// Guarded MOV must not touch the register when the guard is false.
	body := `
    MOV R31, 111
    MOV R1, 5
    ISETP.GT P1, R1, 9
@P1 MOV R31, 222
`
	if got := runScalar(t, body); got != 111 {
		t.Fatalf("false-guarded MOV executed: %d", got)
	}
}

func TestNestedDivergence(t *testing.T) {
	// Nested if/else over tid bits: out = (tid&1)*2 + (tid&2)/2 encoded
	// through two nested SSY regions.
	src := `
.kernel nest
    S2R R0, SR_TID.X
    SHL R1, R0, 2
    IADD R1, R1, c[0]
    AND R2, R0, 1
    AND R3, R0, 2
    MOV R10, 0
    ISETP.NE P0, R2, 0
    SSY outer
@!P0 BRA oskip
    IADD R10, R10, 2
    ISETP.NE P1, R3, 0
    SSY inner
@!P1 BRA iskip
    IADD R10, R10, 1
iskip:
    SYNC
inner:
oskip:
    SYNC
outer:
    ISETP.NE P2, R2, 0
@P2 BRA store
    ISETP.NE P3, R3, 0
    SSY fin
@!P3 BRA eskip
    IADD R10, R10, 1
eskip:
    SYNC
fin:
store:
    STG [R1], R10
    EXIT
`
	prog, err := sass.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(chips.MiniNVIDIA())
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.Mem().Alloc(4 * 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Launch(gpu.LaunchSpec{Kernel: prog, Grid: gpu.D1(1), Group: gpu.D1(32), Args: []uint32{out}}); err != nil {
		t.Fatal(err)
	}
	got, err := d.Mem().ReadWords(out, 32)
	if err != nil {
		t.Fatal(err)
	}
	for tid, v := range got {
		want := uint32(0)
		if tid&1 != 0 {
			want = 2
			if tid&2 != 0 {
				want++
			}
		} else if tid&2 != 0 {
			want = 1
		}
		if v != want {
			t.Fatalf("tid %d: got %d, want %d", tid, v, want)
		}
	}
}

func TestBadGlobalAccessIsError(t *testing.T) {
	d, err := New(chips.MiniNVIDIA())
	if err != nil {
		t.Fatal(err)
	}
	prog := sass.MustAssemble(".kernel bad\nMOV R1, 0x3FFFFF0\nLDG R2, [R1]\nEXIT\n")
	err = d.Launch(gpu.LaunchSpec{Kernel: prog, Grid: gpu.D1(1), Group: gpu.D1(32)})
	if err == nil {
		t.Fatal("wild global load accepted")
	}
}

func TestMisalignedAccessIsError(t *testing.T) {
	d, err := New(chips.MiniNVIDIA())
	if err != nil {
		t.Fatal(err)
	}
	prog := sass.MustAssemble(".kernel mis\nMOV R1, 258\nLDG R2, [R1]\nEXIT\n")
	err = d.Launch(gpu.LaunchSpec{Kernel: prog, Grid: gpu.D1(1), Group: gpu.D1(32)})
	if err == nil {
		t.Fatal("misaligned load accepted")
	}
}

func TestSharedOOBIsError(t *testing.T) {
	d, err := New(chips.MiniNVIDIA())
	if err != nil {
		t.Fatal(err)
	}
	prog := sass.MustAssemble(".kernel oob\n.shared 64\nMOV R1, 64\nLDS R2, [R1]\nEXIT\n")
	err = d.Launch(gpu.LaunchSpec{Kernel: prog, Grid: gpu.D1(1), Group: gpu.D1(32)})
	if err == nil {
		t.Fatal("shared access beyond the block allocation accepted")
	}
}

func TestSyncEmptyStackIsError(t *testing.T) {
	d, err := New(chips.MiniNVIDIA())
	if err != nil {
		t.Fatal(err)
	}
	prog := sass.MustAssemble(".kernel s\nSYNC\nEXIT\n")
	err = d.Launch(gpu.LaunchSpec{Kernel: prog, Grid: gpu.D1(1), Group: gpu.D1(32)})
	if err == nil {
		t.Fatal("SYNC with empty SIMT stack accepted")
	}
}

func TestOccupancyLimitedResidency(t *testing.T) {
	// A kernel with a big shared footprint limits resident blocks per SM;
	// the launch must still complete and occupancy must reflect it.
	chip := chips.MiniNVIDIA() // 8KB shared per SM
	d, err := New(chip)
	if err != nil {
		t.Fatal(err)
	}
	prog := sass.MustAssemble(`
.kernel fat
.shared 4096
    S2R R0, SR_TID.X
    SHL R1, R0, 2
    MOV R2, 1
    STS [R1], R2
    BAR.SYNC
    EXIT
`)
	if err := d.Launch(gpu.LaunchSpec{Kernel: prog, Grid: gpu.D1(8), Group: gpu.D1(64)}); err != nil {
		t.Fatal(err)
	}
	occ := d.Stats().Occupancy(gpu.LocalMemory, int64(chip.Units)*int64(chip.LocalBytesPerUnit))
	if occ <= 0 || occ > 1 {
		t.Fatalf("occupancy %v", occ)
	}
}

// refALU mirrors the simulator's integer ALU semantics for the
// differential property test.
func refALU(op string, a, b int32) uint32 {
	ua, ub := uint32(a), uint32(b)
	switch op {
	case "IADD":
		return ua + ub
	case "ISUB":
		return ua - ub
	case "IMUL":
		return uint32(a * b)
	case "IMIN":
		if a < b {
			return ua
		}
		return ub
	case "IMAX":
		if a > b {
			return ua
		}
		return ub
	case "AND":
		return ua & ub
	case "OR":
		return ua | ub
	case "XOR":
		return ua ^ ub
	case "SHL":
		return ua << (ub & 31)
	case "SHR":
		return ua >> (ub & 31)
	default:
		panic(op)
	}
}

// TestRandomALUProgramsMatchReference generates random straight-line
// integer programs, executes them on the simulator and on a tiny Go
// reference interpreter, and requires identical results.
func TestRandomALUProgramsMatchReference(t *testing.T) {
	ops := []string{"IADD", "ISUB", "IMUL", "IMIN", "IMAX", "AND", "OR", "XOR", "SHL", "SHR"}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(func(seedVals [4]int32, choices []uint8) bool {
		if len(choices) == 0 || len(choices) > 30 {
			return true
		}
		regs := [8]uint32{}
		var src strings.Builder
		for i, v := range seedVals {
			fmt.Fprintf(&src, "MOV R%d, %d\n", i+1, v)
			regs[i+1] = uint32(v)
		}
		for i, ch := range choices {
			op := ops[int(ch)%len(ops)]
			ra := 1 + int(ch>>3)%4
			rb := 1 + int(ch>>5)%4
			rd := 1 + (i % 4)
			fmt.Fprintf(&src, "%s R%d, R%d, R%d\n", op, rd, ra, rb)
			regs[rd] = refALU(op, int32(regs[ra]), int32(regs[rb]))
		}
		src.WriteString("MOV R31, R1\n")
		got := runScalar(t, src.String())
		return got == regs[1]
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounting(t *testing.T) {
	d, err := New(chips.MiniNVIDIA())
	if err != nil {
		t.Fatal(err)
	}
	prog := sass.MustAssemble(".kernel c\nMOV R1, 1\nEXIT\n")
	if err := d.Launch(gpu.LaunchSpec{Kernel: prog, Grid: gpu.D1(2), Group: gpu.D1(64)}); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	// 2 blocks x 2 warps x 2 instructions.
	if st.Instructions != 8 {
		t.Fatalf("instructions = %d, want 8", st.Instructions)
	}
	if st.LaneInstructions != 256 {
		t.Fatalf("lane instructions = %d, want 256", st.LaneInstructions)
	}
	if st.Launches != 1 {
		t.Fatalf("launches = %d", st.Launches)
	}
}

// TestOpcodeWithoutLaneSemanticsFailsTheLaunch: an opcode that aluOf does
// not map, in or out of its range, and a comparison that condOf does not,
// end the launch with an error, never with a silent zero or a panic.
func TestOpcodeWithoutLaneSemanticsFailsTheLaunch(t *testing.T) {
	unguarded := sass.Guard{Pred: sass.PT}
	for name, in := range map[string]sass.Instr{
		"opcode 200":     {Op: 200},
		"opcode -1":      {Op: -1},
		"comparison 200": {Op: sass.OpISETP, Cmp: 200},
	} {
		in.Guard, in.PSrc = unguarded, sass.PT
		prog := &sass.Program{Name: "bad", NumRegs: 1, Instrs: []sass.Instr{in, {Op: sass.OpEXIT, Guard: unguarded}}}
		d, err := New(chips.MiniNVIDIA())
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Launch(gpu.LaunchSpec{Kernel: prog, Grid: gpu.D1(1), Group: gpu.D1(32)}); err == nil {
			t.Errorf("%s: launch succeeded", name)
		}
	}
}
