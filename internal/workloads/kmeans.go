package workloads

import (
	"repro/internal/gpu"
	"repro/internal/sass"
	"repro/internal/siasm"
	"repro/internal/stats"
)

// kmeans (Rodinia): the cluster-assignment kernel. Each thread owns one
// point, scans all k centroids accumulating squared Euclidean distance
// over the feature dimensions, and records the argmin label. The
// branch-free best-update (SEL on NVIDIA, v_cndmask on AMD) keeps the
// comparison order identical across dialects: strict less-than, ties keep
// the lower centroid index.

const (
	kmPoints = 1024
	kmDims   = 4
	kmK      = 8
	kmGroup  = 128
)

const kmeansSASSSrc = `
.kernel kmeans
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    S2R R2, SR_NTID.X
    IMAD R3, R1, R2, R0        ; pid
    ISETP.GE P0, R3, c[3]
@P0 EXIT
    MOV R4, 0                  ; best index
    MOV R5, 0x7F7FFFFF         ; best distance = +FLT_MAX
    MOV R6, 0                  ; centroid c
cl:
    MOV R7, 0                  ; distance acc
    MOV R8, 0                  ; dim
dl:
    IMAD R9, R3, c[4], R8
    SHL R9, R9, 2
    IADD R9, R9, c[0]
    LDG R10, [R9]              ; point[pid][dim]
    IMAD R11, R6, c[4], R8
    SHL R11, R11, 2
    IADD R11, R11, c[1]
    LDG R12, [R11]             ; centroid[c][dim]
    FSUB R13, R10, R12
    FMUL R13, R13, R13
    FADD R7, R7, R13
    IADD R8, R8, 1
    ISETP.LT P1, R8, c[4]
@P1 BRA dl
    FSETP.LT P2, R7, R5
    SEL R5, R7, R5, P2
    SEL R4, R6, R4, P2
    IADD R6, R6, 1
    ISETP.LT P3, R6, c[5]
@P3 BRA cl
    SHL R14, R3, 2
    IADD R14, R14, c[2]
    STG [R14], R4
    EXIT
`

var kmeansSASS = sass.MustAssemble(kmeansSASSSrc)

const kmeansSISrc = `
.kernel kmeans
    s_load_dword s4, karg[0]       ; POINTS
    s_load_dword s5, karg[1]       ; CENTROIDS
    s_load_dword s6, karg[2]       ; LABELS
    s_load_dword s7, karg[3]       ; n
    s_load_dword s8, karg[4]       ; dims
    s_load_dword s9, karg[5]       ; k
    s_load_dword s10, karg[6]      ; group size
    s_mul_i32 s11, s12, s10
    v_add_i32 v2, v0, s11          ; pid
    v_cmp_lt_i32 vcc, v2, s7
    s_and_saveexec_b64 s[14:15], vcc
    s_cbranch_execz end
    v_mov_b32 v3, 0                ; best index
    v_mov_b32 v4, 0x7F7FFFFF       ; best distance
    s_mov_b32 s16, 0               ; centroid c
cl:
    v_mov_b32 v5, 0                ; distance acc
    s_mov_b32 s17, 0               ; dim
dl:
    v_mul_i32 v6, v2, s8
    v_add_i32 v6, v6, s17
    v_lshlrev_b32 v6, 2, v6
    v_add_i32 v6, v6, s4
    buffer_load_dword v7, v6, 0
    s_mul_i32 s18, s16, s8
    s_add_i32 s19, s18, s17
    s_lshl_b32 s19, s19, 2
    s_add_i32 s19, s19, s5
    v_mov_b32 v8, s19
    buffer_load_dword v9, v8, 0
    v_sub_f32 v10, v7, v9
    v_mul_f32 v10, v10, v10
    v_add_f32 v5, v5, v10
    s_add_i32 s17, s17, 1
    s_cmp_lt_i32 s17, s8
    s_cbranch_scc1 dl
    v_cmp_lt_f32 vcc, v5, v4
    v_cndmask_b32 v4, v4, v5, vcc
    v_mov_b32 v11, s16
    v_cndmask_b32 v3, v3, v11, vcc
    s_add_i32 s16, s16, 1
    s_cmp_lt_i32 s16, s9
    s_cbranch_scc1 cl
    v_lshlrev_b32 v12, 2, v2
    v_add_i32 v12, v12, s6
    buffer_store_dword v3, v12, 0
end:
    s_mov_b64 exec, s[14:15]
    s_endpgm
`

var kmeansSI = siasm.MustAssemble(kmeansSISrc)

// kmeansGolden replicates the kernel's accumulation and strict-less-than
// argmin update.
func kmeansGolden(points, centroids []float32) []uint32 {
	labels := make([]uint32, kmPoints)
	const maxFloat = float32(3.4028234663852886e+38) // 0x7F7FFFFF
	for p := 0; p < kmPoints; p++ {
		best := uint32(0)
		bestD := maxFloat
		for c := 0; c < kmK; c++ {
			var acc float32
			for d := 0; d < kmDims; d++ {
				diff := points[p*kmDims+d] - centroids[c*kmDims+d]
				acc += diff * diff
			}
			if acc < bestD {
				bestD = acc
				best = uint32(c)
			}
		}
		labels[p] = best
	}
	return labels
}

func newKMeans(v gpu.Vendor) (*gpu.HostProgram, error) {
	rng := stats.NewRNG(0x5eed0005)
	points := randFloats(rng, kmPoints*kmDims, -5, 5)
	centroids := randFloats(rng, kmK*kmDims, -5, 5)

	out := wordOutput("kmeans", kmeansGolden(points, centroids))
	return hostProgram("kmeans", v, func(r *run) {
		addrP, addrC := r.floats(points), r.floats(centroids)
		out.addr = r.alloc(kmPoints)
		r.launch(kmeansSASS, kmeansSI, gpu.D1(kmPoints/kmGroup), gpu.D1(kmGroup),
			[]uint32{addrP, addrC, out.addr, kmPoints, kmDims, kmK}, kmGroup)
	}, out)
}
