package workloads

import (
	"repro/internal/gpu"
	"repro/internal/sass"
	"repro/internal/siasm"
	"repro/internal/stats"
)

// scan: per-block Hillis-Steele inclusive prefix sum, double-buffered in
// shared memory (the SDK "scan" workload shape). n is a multiple of the
// block size, as in the SDK version.

const (
	scanN     = 1024
	scanGroup = 128
)

const scanSASSSrc = `
.kernel scan
.shared 1024                  ; two 128-word buffers
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    S2R R2, SR_NTID.X
    IMAD R3, R1, R2, R0        ; gid
    SHL R4, R3, 2
    IADD R4, R4, c[0]
    LDG R5, [R4]
    SHL R6, R0, 2              ; tid*4
    STS [R6], R5
    BAR.SYNC
    MOV R7, 1                  ; offset
    MOV R8, 0                  ; src buffer base
    MOV R9, 512
loop:
    ISUB R10, R9, R8           ; dst buffer base
    IADD R11, R6, R8
    LDS R12, [R11]             ; own value
    SSY add_end
    ISETP.LT P0, R0, R7
@P0 BRA add_skip
    ISUB R13, R0, R7
    SHL R13, R13, 2
    IADD R13, R13, R8
    LDS R14, [R13]
    FADD R12, R12, R14
add_skip:
    SYNC
add_end:
    IADD R15, R6, R10
    STS [R15], R12
    BAR.SYNC
    ISUB R8, R9, R8            ; swap buffers
    SHL R7, R7, 1
    ISETP.LT P1, R7, R2
@P1 BRA loop
    IADD R16, R6, R8
    LDS R17, [R16]
    SHL R18, R3, 2
    IADD R18, R18, c[1]
    STG [R18], R17
    EXIT
`

var scanSASS = sass.MustAssemble(scanSASSSrc)

const scanSISrc = `
.kernel scan
.lds 1024
    s_load_dword s4, karg[0]       ; IN
    s_load_dword s5, karg[1]       ; OUT
    s_load_dword s6, karg[2]       ; group size
    s_mul_i32 s7, s12, s6
    v_add_i32 v2, v0, s7           ; gid
    v_lshlrev_b32 v3, 2, v2
    v_add_i32 v3, v3, s4
    buffer_load_dword v4, v3, 0
    v_lshlrev_b32 v5, 2, v0        ; tid*4
    ds_write_b32 v5, v4, 0
    s_barrier
    s_mov_b32 s8, 1                ; offset
    s_mov_b32 s9, 0                ; src base
loop:
    s_sub_i32 s10, 512, s9         ; dst base
    v_add_i32 v6, v5, s9
    ds_read_b32 v7, v6, 0          ; own value
    v_cmp_ge_i32 vcc, v0, s8
    s_and_saveexec_b64 s[14:15], vcc
    s_cbranch_execz add_skip
    v_sub_i32 v8, v0, s8
    v_lshlrev_b32 v8, 2, v8
    v_add_i32 v8, v8, s9
    ds_read_b32 v9, v8, 0
    v_add_f32 v7, v7, v9
add_skip:
    s_mov_b64 exec, s[14:15]
    v_add_i32 v10, v5, s10
    ds_write_b32 v10, v7, 0
    s_barrier
    s_sub_i32 s9, 512, s9
    s_lshl_b32 s8, s8, 1
    s_cmp_lt_i32 s8, s6
    s_cbranch_scc1 loop
    v_add_i32 v11, v5, s9
    ds_read_b32 v12, v11, 0
    v_lshlrev_b32 v13, 2, v2
    v_add_i32 v13, v13, s5
    buffer_store_dword v12, v13, 0
    s_endpgm
`

var scanSI = siasm.MustAssemble(scanSISrc)

// scanGolden replicates the Hillis-Steele order per block.
func scanGolden(in []float32, n, group int) []float32 {
	out := make([]float32, n)
	src := make([]float32, group)
	dst := make([]float32, group)
	for b := 0; b < n/group; b++ {
		copy(src, in[b*group:(b+1)*group])
		for off := 1; off < group; off *= 2 {
			for t := 0; t < group; t++ {
				v := src[t]
				if t >= off {
					v += src[t-off]
				}
				dst[t] = v
			}
			src, dst = dst, src
		}
		copy(out[b*group:], src)
	}
	return out
}

func newScan(v gpu.Vendor) (*gpu.HostProgram, error) {
	const n = scanN
	const group = scanGroup
	rng := stats.NewRNG(0x5eed0008)
	in := randFloats(rng, n, -2, 2)

	out := floatOutput("scan", scanGolden(in, n, group))
	return hostProgram("scan", v, func(r *run) {
		addrIn := r.floats(in)
		out.addr = r.alloc(n)
		r.launch(scanSASS, scanSI, gpu.D1(n/group), gpu.D1(group),
			[]uint32{addrIn, out.addr}, group)
	}, out)
}
