package workloads

import (
	"repro/internal/gpu"
	"repro/internal/sass"
	"repro/internal/siasm"
	"repro/internal/stats"
)

// vectoradd: C[i] = A[i] + B[i], the canonical SDK quickstart kernel.
// It is the only benchmark without any data reuse, so it exercises the
// guard-and-stream pattern (boundary-divergent tail warp included: n is
// deliberately not a multiple of the block size).

const vectorAddN = 3000
const vectorAddGroup = 128

const vectorAddSASSSrc = `
.kernel vectoradd
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    S2R R2, SR_NTID.X
    IMAD R3, R1, R2, R0       ; gid
    ISETP.GE P0, R3, c[3]
@P0 EXIT
    SHL R4, R3, 2
    IADD R5, R4, c[0]
    LDG R6, [R5]
    IADD R7, R4, c[1]
    LDG R8, [R7]
    FADD R9, R6, R8
    IADD R10, R4, c[2]
    STG [R10], R9
    EXIT
`

var vectorAddSASS = sass.MustAssemble(vectorAddSASSSrc)

const vectorAddSISrc = `
.kernel vectoradd
    s_load_dword s4, karg[0]       ; A
    s_load_dword s5, karg[1]       ; B
    s_load_dword s6, karg[2]       ; OUT
    s_load_dword s7, karg[3]       ; n
    s_load_dword s8, karg[4]       ; group size
    s_mul_i32 s9, s12, s8
    v_add_i32 v2, v0, s9           ; gid
    v_cmp_lt_i32 vcc, v2, s7
    s_and_saveexec_b64 s[10:11], vcc
    s_cbranch_execz done
    v_lshlrev_b32 v3, 2, v2
    v_add_i32 v4, v3, s4
    buffer_load_dword v5, v4, 0
    v_add_i32 v6, v3, s5
    buffer_load_dword v7, v6, 0
    v_add_f32 v8, v5, v7
    v_add_i32 v9, v3, s6
    buffer_store_dword v8, v9, 0
done:
    s_mov_b64 exec, s[10:11]
    s_endpgm
`

var vectorAddSI = siasm.MustAssemble(vectorAddSISrc)

func newVectorAdd(v gpu.Vendor) (*gpu.HostProgram, error) {
	return vectorAdd("vectoradd", v, vectorAddN, 0x5eed0001)
}

// vectorAdd is the suite's build (n = vectorAddN) and the sized builds
// of sized.go.
func vectorAdd(name string, v gpu.Vendor, n int, seed uint64) (*gpu.HostProgram, error) {
	rng := stats.NewRNG(seed)
	a := randFloats(rng, n, -4, 4)
	b := randFloats(rng, n, -4, 4)
	want := make([]float32, n)
	for i := range want {
		want[i] = a[i] + b[i]
	}

	out := floatOutput(name, want)
	return hostProgram(name, v, func(r *run) {
		addrA, addrB := r.floats(a), r.floats(b)
		out.addr = r.alloc(n)
		r.launch(vectorAddSASS, vectorAddSI,
			gpu.D1((n+vectorAddGroup-1)/vectorAddGroup), gpu.D1(vectorAddGroup),
			[]uint32{addrA, addrB, out.addr, uint32(n)}, vectorAddGroup)
	}, out)
}
