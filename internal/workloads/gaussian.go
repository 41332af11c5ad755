package workloads

import (
	"repro/internal/gpu"
	"repro/internal/sass"
	"repro/internal/siasm"
	"repro/internal/stats"
)

// gaussian (Rodinia): forward Gaussian elimination of Ax = b by repeated
// Fan1/Fan2 kernel launches — Fan1 computes the column of multipliers for
// elimination step t, Fan2 applies them to the trailing submatrix and to
// the right-hand side. The host loops t = 0..n-2 launching both kernels,
// exactly like the Rodinia host code (30 launches for n=16). No shared
// memory is used, which keeps gaussian out of the paper's Fig. 2 subset.

const gaussN = 16

const gaussFan1SASSSrc = `
.kernel fan1
    S2R R0, SR_TID.X           ; row i
    SSY end
    ISETP.LE P0, R0, c[3]
@P0 BRA skip
    IMAD R1, R0, c[2], c[3]    ; i*n + t
    SHL R2, R1, 2
    IADD R2, R2, c[0]
    LDG R3, [R2]               ; a[i][t]
    MOV R4, c[3]
    IMAD R5, R4, c[2], R4      ; t*n + t
    SHL R5, R5, 2
    IADD R5, R5, c[0]
    LDG R6, [R5]               ; a[t][t]
    MUFU.RCP R7, R6
    FMUL R8, R3, R7
    SHL R9, R0, 2
    IADD R9, R9, c[1]
    STG [R9], R8               ; m[i]
skip:
    SYNC
end:
    EXIT
`

var gaussFan1SASS = sass.MustAssemble(gaussFan1SASSSrc)

const gaussFan2SASSSrc = `
.kernel fan2
    S2R R0, SR_TID.X           ; column j
    S2R R1, SR_TID.Y           ; row i
    SSY end
    ISETP.LE P0, R1, c[4]
@P0 BRA skip
    ISETP.LT P1, R0, c[4]
@P1 BRA skip
    SHL R2, R1, 2
    IADD R2, R2, c[2]
    LDG R3, [R2]               ; m[i]
    IMAD R4, R1, c[3], R0
    SHL R4, R4, 2
    IADD R4, R4, c[0]          ; &a[i][j]
    MOV R5, c[4]
    IMAD R6, R5, c[3], R0
    SHL R6, R6, 2
    IADD R6, R6, c[0]
    LDG R7, [R6]               ; a[t][j]
    LDG R8, [R4]
    FMUL R9, R3, R7
    FSUB R8, R8, R9
    STG [R4], R8
    SSY bend
    ISETP.NE P2, R0, c[4]
@P2 BRA bskip
    SHL R10, R1, 2
    IADD R10, R10, c[1]
    LDG R11, [R10]             ; b[i]
    MOV R12, c[4]
    SHL R13, R12, 2
    IADD R13, R13, c[1]
    LDG R14, [R13]             ; b[t]
    FMUL R15, R3, R14
    FSUB R11, R11, R15
    STG [R10], R11
bskip:
    SYNC
bend:
skip:
    SYNC
end:
    EXIT
`

var gaussFan2SASS = sass.MustAssemble(gaussFan2SASSSrc)

const gaussFan1SISrc = `
.kernel fan1
    s_load_dword s4, karg[0]       ; A
    s_load_dword s5, karg[1]       ; M
    s_load_dword s6, karg[2]       ; n
    s_load_dword s7, karg[3]       ; t
    v_cmp_gt_i32 vcc, v0, s7
    s_and_saveexec_b64 s[10:11], vcc
    s_cbranch_execz end
    v_mul_i32 v2, v0, s6
    v_add_i32 v2, v2, s7
    v_lshlrev_b32 v2, 2, v2
    v_add_i32 v2, v2, s4
    buffer_load_dword v3, v2, 0    ; a[i][t]
    s_mul_i32 s8, s7, s6
    s_add_i32 s8, s8, s7
    s_lshl_b32 s8, s8, 2
    s_add_i32 s8, s8, s4
    v_mov_b32 v4, s8
    buffer_load_dword v5, v4, 0    ; a[t][t]
    v_rcp_f32 v6, v5
    v_mul_f32 v7, v3, v6
    v_lshlrev_b32 v8, 2, v0
    v_add_i32 v8, v8, s5
    buffer_store_dword v7, v8, 0
end:
    s_mov_b64 exec, s[10:11]
    s_endpgm
`

var gaussFan1SI = siasm.MustAssemble(gaussFan1SISrc)

const gaussFan2SISrc = `
.kernel fan2
    s_load_dword s4, karg[0]       ; A
    s_load_dword s5, karg[1]       ; B
    s_load_dword s6, karg[2]       ; M
    s_load_dword s7, karg[3]       ; n
    s_load_dword s8, karg[4]       ; t
    v_cmp_gt_i32 vcc, v1, s8
    s_and_saveexec_b64 s[10:11], vcc
    s_cbranch_execz end
    v_cmp_ge_i32 vcc, v0, s8
    s_and_saveexec_b64 s[14:15], vcc
    s_cbranch_execz end2
    v_lshlrev_b32 v2, 2, v1
    v_add_i32 v2, v2, s6
    buffer_load_dword v3, v2, 0    ; m[i]
    v_mul_i32 v4, v1, s7
    v_add_i32 v4, v4, v0
    v_lshlrev_b32 v4, 2, v4
    v_add_i32 v4, v4, s4           ; &a[i][j]
    s_mul_i32 s16, s8, s7
    v_add_i32 v5, v0, s16
    v_lshlrev_b32 v5, 2, v5
    v_add_i32 v5, v5, s4           ; &a[t][j]
    buffer_load_dword v6, v5, 0
    buffer_load_dword v7, v4, 0
    v_mul_f32 v8, v3, v6
    v_sub_f32 v7, v7, v8
    buffer_store_dword v7, v4, 0
    v_cmp_eq_i32 vcc, v0, s8
    s_and_saveexec_b64 s[18:19], vcc
    s_cbranch_execz bend
    v_lshlrev_b32 v9, 2, v1
    v_add_i32 v9, v9, s5
    buffer_load_dword v10, v9, 0   ; b[i]
    s_lshl_b32 s20, s8, 2
    s_add_i32 s20, s20, s5
    v_mov_b32 v11, s20
    buffer_load_dword v12, v11, 0  ; b[t]
    v_mul_f32 v13, v3, v12
    v_sub_f32 v10, v10, v13
    buffer_store_dword v10, v9, 0
bend:
    s_mov_b64 exec, s[18:19]
end2:
    s_mov_b64 exec, s[14:15]
end:
    s_mov_b64 exec, s[10:11]
    s_endpgm
`

var gaussFan2SI = siasm.MustAssemble(gaussFan2SISrc)

// gaussGolden runs the elimination with the kernels' exact float32 ops
// (reciprocal-multiply division), returning the final A and b.
func gaussGolden(a, b []float32, n int) ([]float32, []float32) {
	ga := make([]float32, len(a))
	gb := make([]float32, len(b))
	copy(ga, a)
	copy(gb, b)
	m := make([]float32, n)
	for t := 0; t < n-1; t++ {
		r := 1 / ga[t*n+t]
		for i := t + 1; i < n; i++ {
			m[i] = ga[i*n+t] * r
		}
		for i := t + 1; i < n; i++ {
			for j := t; j < n; j++ {
				ga[i*n+j] -= m[i] * ga[t*n+j]
			}
			gb[i] -= m[i] * gb[t]
		}
	}
	return ga, gb
}

func newGaussian(v gpu.Vendor) (*gpu.HostProgram, error) {
	const n = gaussN
	rng := stats.NewRNG(0x5eed0003)
	a := randFloats(rng, n*n, -1, 1)
	// Make the matrix diagonally dominant so elimination stays stable.
	for i := 0; i < n; i++ {
		a[i*n+i] += float32(n)
	}
	b := randFloats(rng, n, -1, 1)
	wantA, wantB := gaussGolden(a, b, n)

	// Elimination is in place: the inputs are the outputs.
	outA := floatOutput("gaussian(A)", wantA)
	outB := floatOutput("gaussian(b)", wantB)
	return hostProgram("gaussian", v, func(r *run) {
		outA.addr, outB.addr = r.floats(a), r.floats(b)
		addrM := r.alloc(n)
		for t := uint32(0); t < n-1; t++ {
			r.launch(gaussFan1SASS, gaussFan1SI, gpu.D1(1), gpu.D1(n),
				[]uint32{outA.addr, addrM, n, t})
			r.launch(gaussFan2SASS, gaussFan2SI, gpu.D1(1), gpu.D2(n, n),
				[]uint32{outA.addr, outB.addr, addrM, n, t})
		}
	}, outA, outB)
}
