package workloads

import (
	"repro/internal/gpu"
	"repro/internal/sass"
	"repro/internal/siasm"
	"repro/internal/stats"
)

// matrixMul: the SDK shared-memory tiled matrix multiplication
// C[M x N] = A[M x K] * B[K x N] with 8x8 tiles staged through shared
// memory / LDS; the inner product accumulates as mul-then-add so the CPU
// golden can replicate the float32 rounding exactly.

const (
	matMulM    = 32
	matMulK    = 32
	matMulN    = 32
	matMulTile = 8
)

const matrixMulSASSSrc = `
.kernel matrixMul
.shared 512                    ; As tile at 0, Bs tile at 256
    S2R R0, SR_TID.X
    S2R R1, SR_TID.Y
    S2R R2, SR_CTAID.X
    S2R R3, SR_CTAID.Y
    MOV R4, 8
    IMAD R5, R3, R4, R1        ; row = by*8+ty
    IMAD R6, R2, R4, R0        ; col = bx*8+tx
    MOV R7, 0                  ; acc
    MOV R8, 0                  ; tile index t
    MOV R9, c[3]
    SHR R9, R9, 3              ; tiles = K/8
tloop:
    SHL R10, R8, 3             ; t*8
    IADD R11, R10, R0          ; t*8+tx
    IMAD R12, R5, c[3], R11    ; row*K + t*8+tx
    SHL R12, R12, 2
    IADD R12, R12, c[0]
    LDG R13, [R12]
    IMAD R14, R1, R4, R0       ; ty*8+tx
    SHL R14, R14, 2
    STS [R14], R13             ; As[ty][tx]
    IADD R15, R10, R1          ; t*8+ty
    IMAD R16, R15, c[4], R6    ; (t*8+ty)*N + col
    SHL R16, R16, 2
    IADD R16, R16, c[1]
    LDG R17, [R16]
    STS [R14+256], R17         ; Bs[ty][tx]
    BAR.SYNC
    MOV R18, 0                 ; k
kloop:
    IMAD R19, R1, R4, R18      ; ty*8+k
    SHL R19, R19, 2
    LDS R20, [R19]
    IMAD R21, R18, R4, R0      ; k*8+tx
    SHL R21, R21, 2
    LDS R22, [R21+256]
    FMUL R23, R20, R22
    FADD R7, R7, R23
    IADD R18, R18, 1
    ISETP.LT P0, R18, 8
@P0 BRA kloop
    BAR.SYNC
    IADD R8, R8, 1
    ISETP.LT P1, R8, R9
@P1 BRA tloop
    IMAD R24, R5, c[4], R6
    SHL R24, R24, 2
    IADD R24, R24, c[2]
    STG [R24], R7
    EXIT
`

var matrixMulSASS = sass.MustAssemble(matrixMulSASSSrc)

const matrixMulSISrc = `
.kernel matrixMul
.lds 512
    s_load_dword s4, karg[0]       ; A
    s_load_dword s5, karg[1]       ; B
    s_load_dword s6, karg[2]       ; C
    s_load_dword s7, karg[3]       ; K
    s_load_dword s8, karg[4]       ; N
    v_mov_b32 v2, s13
    v_lshlrev_b32 v2, 3, v2
    v_add_i32 v2, v2, v1           ; row = by*8+ty
    v_mov_b32 v3, s12
    v_lshlrev_b32 v3, 3, v3
    v_add_i32 v3, v3, v0           ; col = bx*8+tx
    v_mov_b32 v4, 0                ; acc
    s_mov_b32 s9, 0                ; tile t
    s_lshr_b32 s10, s7, 3          ; tiles = K/8
tloop:
    s_lshl_b32 s11, s9, 3          ; t*8
    v_add_i32 v5, v0, s11          ; t*8+tx
    v_mul_i32 v6, v2, s7
    v_add_i32 v6, v6, v5
    v_lshlrev_b32 v6, 2, v6
    v_add_i32 v6, v6, s4
    buffer_load_dword v7, v6, 0
    v_lshlrev_b32 v8, 3, v1
    v_add_i32 v8, v8, v0
    v_lshlrev_b32 v8, 2, v8        ; (ty*8+tx)*4
    ds_write_b32 v8, v7, 0
    v_add_i32 v9, v1, s11          ; t*8+ty
    v_mul_i32 v10, v9, s8
    v_add_i32 v10, v10, v3
    v_lshlrev_b32 v10, 2, v10
    v_add_i32 v10, v10, s5
    buffer_load_dword v11, v10, 0
    ds_write_b32 v8, v11, 256
    s_barrier
    s_mov_b32 s14, 0               ; k
kloop:
    v_lshlrev_b32 v12, 3, v1
    v_add_i32 v12, v12, s14
    v_lshlrev_b32 v12, 2, v12
    ds_read_b32 v13, v12, 0        ; As[ty][k]
    s_lshl_b32 s15, s14, 3
    v_add_i32 v14, v0, s15
    v_lshlrev_b32 v14, 2, v14
    ds_read_b32 v15, v14, 256      ; Bs[k][tx]
    v_mul_f32 v16, v13, v15
    v_add_f32 v4, v4, v16
    s_add_i32 s14, s14, 1
    s_cmp_lt_i32 s14, 8
    s_cbranch_scc1 kloop
    s_barrier
    s_add_i32 s9, s9, 1
    s_cmp_lt_i32 s9, s10
    s_cbranch_scc1 tloop
    v_mul_i32 v17, v2, s8
    v_add_i32 v17, v17, v3
    v_lshlrev_b32 v17, 2, v17
    v_add_i32 v17, v17, s6
    buffer_store_dword v4, v17, 0
    s_endpgm
`

var matrixMulSI = siasm.MustAssemble(matrixMulSISrc)

// matrixMulGolden accumulates in the kernel's exact order: sequential over
// k with separate float32 multiply and add.
func matrixMulGolden(a, b []float32, m, k, n int) []float32 {
	out := make([]float32, m*n)
	for row := 0; row < m; row++ {
		for col := 0; col < n; col++ {
			var acc float32
			for kk := 0; kk < k; kk++ {
				p := a[row*k+kk] * b[kk*n+col]
				acc += p
			}
			out[row*n+col] = acc
		}
	}
	return out
}

func newMatrixMul(v gpu.Vendor) (*gpu.HostProgram, error) {
	rng := stats.NewRNG(0x5eed0006)
	a := randFloats(rng, matMulM*matMulK, -1, 1)
	b := randFloats(rng, matMulK*matMulN, -1, 1)

	out := floatOutput("matrixMul", matrixMulGolden(a, b, matMulM, matMulK, matMulN))
	return hostProgram("matrixMul", v, func(r *run) {
		addrA, addrB := r.floats(a), r.floats(b)
		out.addr = r.alloc(matMulM * matMulN)
		r.launch(matrixMulSASS, matrixMulSI,
			gpu.D2(matMulN/matMulTile, matMulM/matMulTile), gpu.D2(matMulTile, matMulTile),
			[]uint32{addrA, addrB, out.addr, matMulK, matMulN})
	}, out)
}
