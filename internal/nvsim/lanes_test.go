package nvsim

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/chips"
	"repro/internal/gpu"
	"repro/internal/sass"
)

var update = flag.Bool("update", false, "rewrite testdata/lane_semantics.golden from what the simulator computes now")

// laneGrid is the operand edge grid of TestLaneSemanticsPinned: 0, 1, -1,
// the int32 extremes (MinInt32 is also -0.0f), the shift amounts around
// the 5-bit mask, ±1.0f, ±Inf, a quiet NaN and a denormal.
var laneGrid = []uint32{
	0, 1, 0xFFFFFFFF, 0x7FFFFFFF, 0x80000000, 31, 32, 33,
	0x3F800000, 0xBF800000, 0x7F800000, 0xFF800000, 0x7FC00000, 0x00400000,
}

// laneOperands returns every arity-tuple over laneGrid as three columns;
// the columns past arity are zero.
func laneOperands(arity int) (cols [3][]uint32) {
	total := 1
	for range arity {
		total *= len(laneGrid)
	}
	for i := range total {
		for k, rest := 0, i; k < 3; k++ {
			var v uint32
			if k < arity {
				v, rest = laneGrid[rest%len(laneGrid)], rest/len(laneGrid)
			}
			cols[k] = append(cols[k], v)
		}
	}
	return cols
}

// laneCase is one mnemonic under TestLaneSemanticsPinned: body reads the
// tuple from R1, R2, R3 (and the thread index from R0) and leaves its
// result in R7.
type laneCase struct {
	name  string
	body  string
	arity int
}

func laneCases() []laneCase {
	var cs []laneCase
	for _, op := range []string{"MOV", "MUFU.RCP", "MUFU.EX2", "MUFU.LG2", "MUFU.SQRT", "I2F", "F2I"} {
		cs = append(cs, laneCase{op, op + " R7, R1", 1})
	}
	for _, op := range []string{"IADD", "ISUB", "IMUL", "IMIN", "IMAX", "AND", "OR", "XOR", "SHL", "SHR",
		"FADD", "FSUB", "FMUL", "FMIN", "FMAX"} {
		cs = append(cs, laneCase{op, op + " R7, R1, R2", 2})
	}
	for _, op := range []string{"IMAD", "FFMA"} {
		cs = append(cs, laneCase{op, op + " R7, R1, R2, R3", 3})
	}
	cs = append(cs, laneCase{"SEL", "AND R9, R0, 1\nISETP.NE P0, R9, 0\nSEL R7, R1, R2, P0", 2})
	for _, set := range []string{"ISETP", "FSETP"} {
		for _, cc := range []string{"LT", "LE", "GT", "GE", "EQ", "NE"} {
			mn := set + "." + cc
			cs = append(cs, laneCase{mn, "MOV R7, 0\n" + mn + " P1, R1, R2\n@P1 MOV R7, 1", 2})
		}
	}
	return cs
}

// laneKernel wraps a case body: thread i loads tuple i and stores R7.
func laneKernel(body string) string {
	return `.kernel lanes
    S2R R0, SR_TID.X
    S2R R5, SR_CTAID.X
    SHL R5, R5, 6
    IADD R0, R0, R5
    SHL R4, R0, 2
    IADD R1, R4, c[0]
    LDG R1, [R1]
    IADD R2, R4, c[1]
    LDG R2, [R2]
    IADD R3, R4, c[2]
    LDG R3, [R3]
` + body + `
    IADD R8, R4, c[3]
    STG [R8], R7
    EXIT
`
}

// runLanes launches one thread per operand tuple, in blocks of 64, and
// returns the word each stored.
func runLanes(t *testing.T, prog *sass.Program, arity int) []uint32 {
	t.Helper()
	cols := laneOperands(arity)
	n := len(cols[0])
	blocks := (n + 63) / 64
	d, err := New(chips.MiniNVIDIA())
	if err != nil {
		t.Fatal(err)
	}
	mem := d.Mem()
	args := make([]uint32, 4)
	for k, col := range cols {
		if args[k], err = mem.AllocWords(append(col, make([]uint32, blocks*64-n)...)); err != nil {
			t.Fatal(err)
		}
	}
	if args[3], err = mem.Alloc(4 * blocks * 64); err != nil {
		t.Fatal(err)
	}
	if err := d.Launch(gpu.LaunchSpec{Kernel: prog, Grid: gpu.D1(blocks), Group: gpu.D1(64), Args: args}); err != nil {
		t.Fatalf("%s: launch: %v", prog.Name, err)
	}
	out, err := mem.ReadWords(args[3], n)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLaneSemanticsPinned pins what every ALU, select and compare
// mnemonic computes over every tuple of an edge grid: one golden line per
// mnemonic with a SHA-256 over its outputs. The file was recorded before
// the lane arithmetic moved into package simt and is never regenerated
// for a refactor; `-update` is for an intended change of semantics only.
func TestLaneSemanticsPinned(t *testing.T) {
	const golden = "testdata/lane_semantics.golden"
	seen := map[sass.Opcode]bool{}
	var b strings.Builder
	for _, c := range laneCases() {
		prog, err := sass.Assemble(laneKernel(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, in := range prog.Instrs {
			seen[in.Op] = true
		}
		h := sha256.New()
		for _, v := range runLanes(t, prog, c.arity) {
			h.Write(binary.LittleEndian.AppendUint32(nil, v))
		}
		fmt.Fprintf(&b, "%s tuples=%d sha256=%x\n", c.name, len(laneOperands(c.arity)[0]), h.Sum(nil))
	}
	for op := sass.OpMOV; op <= sass.OpSEL; op++ {
		if op != sass.OpS2R && !seen[op] {
			t.Errorf("%v has no lane case", op)
		}
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d mnemonics computed, %s pins %d", len(gotLines)-1, golden, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("lane semantics moved:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}
