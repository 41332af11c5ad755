package amdsim

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/chips"
	"repro/internal/gpu"
	"repro/internal/siasm"
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

// laneCase is one mnemonic under TestLaneSemanticsPinned. A vector case
// (arity 1-3) runs one work-item per tuple: body reads it from v1, v2, v3
// (and the work-item index from v10) and leaves its result in v7. A
// scalar case (arity 0) runs once per operand pair, unrolled in one
// wavefront: body reads s1, s2, leaves its result in s7, and writes $k
// where a label must be unique. scalarF32 turns its s_cmp into the f32
// compare the assembler does not accept.
type laneCase struct {
	name      string
	body      string
	arity     int
	scalarF32 bool
}

func laneCases() []laneCase {
	var cs []laneCase
	for _, op := range []string{"v_mov_b32", "v_rcp_f32", "v_sqrt_f32", "v_exp_f32", "v_log_f32",
		"v_cvt_f32_i32", "v_cvt_i32_f32"} {
		cs = append(cs, laneCase{name: op, body: op + " v7, v1", arity: 1})
	}
	for _, op := range []string{"v_add_i32", "v_sub_i32", "v_mul_i32", "v_min_i32", "v_max_i32",
		"v_and_b32", "v_or_b32", "v_xor_b32", "v_lshlrev_b32", "v_lshrrev_b32",
		"v_add_f32", "v_sub_f32", "v_mul_f32", "v_min_f32", "v_max_f32"} {
		cs = append(cs, laneCase{name: op, body: op + " v7, v1, v2", arity: 2})
	}
	cs = append(cs,
		laneCase{name: "v_mac_f32", body: "v_mov_b32 v7, v3\nv_mac_f32 v7, v1, v2", arity: 3},
		laneCase{name: "v_cndmask_b32", body: "v_and_b32 v9, v10, 1\nv_cmp_ne_i32 vcc, v9, 0\nv_cndmask_b32 v7, v1, v2, vcc", arity: 2},
		laneCase{name: "s_mov_b32", body: "s_mov_b32 s7, s1"})
	for _, op := range []string{"s_add_i32", "s_sub_i32", "s_mul_i32", "s_and_b32", "s_or_b32", "s_xor_b32",
		"s_lshl_b32", "s_lshr_b32", "s_min_i32", "s_max_i32"} {
		cs = append(cs, laneCase{name: op, body: op + " s7, s1, s2"})
	}
	for _, ty := range []string{"i32", "u32", "f32"} {
		for _, cc := range []string{"eq", "ne", "lt", "le", "gt", "ge"} {
			cs = append(cs, laneCase{name: "v_cmp_" + cc + "_" + ty,
				body: "v_cmp_" + cc + "_" + ty + " vcc, v1, v2\nv_cndmask_b32 v7, 0, 1, vcc", arity: 2})
			sty := ty
			if ty == "f32" {
				sty = "i32"
			}
			cs = append(cs, laneCase{name: "s_cmp_" + cc + "_" + ty,
				body:      "s_mov_b32 s7, 0\ns_cmp_" + cc + "_" + sty + " s1, s2\ns_cbranch_scc0 skip$k\ns_mov_b32 s7, 1\nskip$k:",
				scalarF32: ty == "f32"})
		}
	}
	return cs
}

// laneKernel wraps a case body in the kernel its arity runs in.
func laneKernel(c laneCase) string {
	if c.arity > 0 {
		return `.kernel lanes
    s_load_dword s0, karg[0]
    s_load_dword s1, karg[1]
    s_load_dword s2, karg[2]
    s_load_dword s3, karg[3]
    s_lshl_b32 s5, s12, 6
    v_add_i32 v10, s5, v0
    v_lshlrev_b32 v11, 2, v10
    v_add_i32 v12, v11, s0
    buffer_load_dword v1, v12, 0
    v_add_i32 v12, v11, s1
    buffer_load_dword v2, v12, 0
    v_add_i32 v12, v11, s2
    buffer_load_dword v3, v12, 0
` + c.body + `
    v_add_i32 v12, v11, s3
    buffer_store_dword v7, v12, 0
    s_endpgm
`
	}
	cols := laneOperands(2)
	var b strings.Builder
	b.WriteString(".kernel slanes\n    s_load_dword s3, karg[0]\n    v_mov_b32 v30, s3\n")
	for k := range cols[0] {
		fmt.Fprintf(&b, "    s_mov_b32 s1, %#x\n    s_mov_b32 s2, %#x\n%s\n    v_mov_b32 v7, s7\n    buffer_store_dword v7, v30, %d\n",
			cols[0][k], cols[1][k], strings.ReplaceAll(c.body, "$k", strconv.Itoa(k)), 4*k)
	}
	b.WriteString("    s_endpgm\n")
	return b.String()
}

// runLanes launches a case: one work-item per tuple in groups of 64, or
// one work-item for an unrolled scalar case. It returns the words stored.
func runLanes(t *testing.T, prog *siasm.Program, arity int) []uint32 {
	t.Helper()
	d, err := New(chips.MiniAMD())
	if err != nil {
		t.Fatal(err)
	}
	mem := d.Mem()
	cols := laneOperands(arity)
	if arity == 0 {
		cols = laneOperands(2)
	}
	n := len(cols[0])
	groups := (n + 63) / 64
	spec := gpu.LaunchSpec{Kernel: prog, Grid: gpu.D1(groups), Group: gpu.D1(64), Args: make([]uint32, 4)}
	if arity == 0 {
		spec.Grid, spec.Group, spec.Args = gpu.D1(1), gpu.D1(1), spec.Args[:1]
	} else {
		for k, col := range cols {
			if spec.Args[k], err = mem.AllocWords(append(col, make([]uint32, groups*64-n)...)); err != nil {
				t.Fatal(err)
			}
		}
	}
	outAddr := &spec.Args[len(spec.Args)-1]
	if *outAddr, err = mem.Alloc(4 * groups * 64); err != nil {
		t.Fatal(err)
	}
	if err := d.Launch(spec); err != nil {
		t.Fatalf("%s: launch: %v", prog.Name, err)
	}
	out, err := mem.ReadWords(*outAddr, n)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLaneSemanticsPinned pins what every scalar and vector ALU, select
// and compare mnemonic computes over every tuple of an edge grid: one
// golden line per mnemonic with a SHA-256 over its outputs. The file was
// recorded before the lane arithmetic moved into package simt and is
// never regenerated for a refactor; `-update` is for an intended change
// of semantics only.
func TestLaneSemanticsPinned(t *testing.T) {
	const golden = "testdata/lane_semantics.golden"
	seen := map[siasm.Opcode]bool{}
	var b strings.Builder
	for _, c := range laneCases() {
		prog, err := siasm.Assemble(laneKernel(c))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i := range prog.Instrs {
			in := &prog.Instrs[i]
			seen[in.Op] = true
			if c.scalarF32 && in.Op == siasm.OpSCmp {
				in.CmpTy = siasm.CmpF32
			}
		}
		h := sha256.New()
		out := runLanes(t, prog, c.arity)
		for _, v := range out {
			h.Write(binary.LittleEndian.AppendUint32(nil, v))
		}
		fmt.Fprintf(&b, "%s tuples=%d sha256=%x\n", c.name, len(out), h.Sum(nil))
	}
	for op := siasm.OpSMov32; op <= siasm.OpVCndmask; op++ {
		if op > siasm.OpSMax && op < siasm.OpVMov {
			continue // 64-bit mask ops, s_load_dword and control flow
		}
		if !seen[op] {
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
