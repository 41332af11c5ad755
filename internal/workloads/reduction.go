package workloads

import (
	"repro/internal/gpu"
	"repro/internal/sass"
	"repro/internal/siasm"
	"repro/internal/stats"
)

// reduction: per-block shared-memory tree sum (the SDK reduction kernel).
// Each block of 128 threads loads one element (boundary-guarded), then
// halves the active thread count each step; block partial sums are the
// program output, merged on the host exactly as the SDK version does.

const (
	reductionN     = 4096
	reductionGroup = 128
)

const reductionSASSSrc = `
.kernel reduction
.shared 512                    ; 128*4
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    S2R R2, SR_NTID.X
    IMAD R3, R1, R2, R0        ; gid
    MOV R4, 0                  ; value (0 pad beyond n)
    SSY ld_end
    ISETP.GE P0, R3, c[2]
@P0 BRA ld_skip
    SHL R5, R3, 2
    IADD R5, R5, c[0]
    LDG R4, [R5]
ld_skip:
    SYNC
ld_end:
    SHL R6, R0, 2              ; tid*4
    STS [R6], R4
    BAR.SYNC
    MOV R7, 64                 ; stride s
loop:
    ISETP.GE P1, R0, R7
    SSY it_end
@P1 BRA it_skip
    IADD R8, R0, R7
    SHL R9, R8, 2
    LDS R10, [R9]              ; sdata[tid+s]
    LDS R11, [R6]              ; sdata[tid]
    FADD R11, R11, R10
    STS [R6], R11
it_skip:
    SYNC
it_end:
    BAR.SYNC
    SHR R7, R7, 1
    ISETP.GE P2, R7, 1
@P2 BRA loop
    SSY fin
    ISETP.NE P3, R0, 0
@P3 BRA w_skip
    LDS R12, [R6]
    SHL R13, R1, 2
    IADD R13, R13, c[1]
    STG [R13], R12
w_skip:
    SYNC
fin:
    EXIT
`

var reductionSASS = sass.MustAssemble(reductionSASSSrc)

const reductionSISrc = `
.kernel reduction
.lds 512
    s_load_dword s4, karg[0]       ; IN
    s_load_dword s5, karg[1]       ; OUT
    s_load_dword s6, karg[2]       ; n
    s_load_dword s7, karg[3]       ; group size
    s_mul_i32 s8, s12, s7
    v_add_i32 v2, v0, s8           ; gid
    v_mov_b32 v3, 0                ; value
    v_cmp_lt_i32 vcc, v2, s6
    s_and_saveexec_b64 s[10:11], vcc
    s_cbranch_execz ld_done
    v_lshlrev_b32 v4, 2, v2
    v_add_i32 v4, v4, s4
    buffer_load_dword v3, v4, 0
ld_done:
    s_mov_b64 exec, s[10:11]
    v_lshlrev_b32 v5, 2, v0        ; tid*4
    ds_write_b32 v5, v3, 0
    s_barrier
    s_mov_b32 s9, 64               ; stride s
loop:
    v_cmp_lt_i32 vcc, v0, s9
    s_and_saveexec_b64 s[10:11], vcc
    s_cbranch_execz it_skip
    v_add_i32 v6, v0, s9
    v_lshlrev_b32 v7, 2, v6
    ds_read_b32 v8, v7, 0
    ds_read_b32 v9, v5, 0
    v_add_f32 v9, v9, v8
    ds_write_b32 v5, v9, 0
it_skip:
    s_mov_b64 exec, s[10:11]
    s_barrier
    s_lshr_b32 s9, s9, 1
    s_cmp_ge_i32 s9, 1
    s_cbranch_scc1 loop
    v_cmp_eq_i32 vcc, v0, 0
    s_and_saveexec_b64 s[10:11], vcc
    s_cbranch_execz w_skip
    ds_read_b32 v10, v5, 0
    s_lshl_b32 s14, s12, 2
    v_mov_b32 v11, s14
    v_add_i32 v11, v11, s5
    buffer_store_dword v10, v11, 0
w_skip:
    s_mov_b64 exec, s[10:11]
    s_endpgm
`

var reductionSI = siasm.MustAssemble(reductionSISrc)

// reductionGolden replicates the kernel's tree order per block.
func reductionGolden(in []float32, n, group int) []float32 {
	blocks := (n + group - 1) / group
	out := make([]float32, blocks)
	sdata := make([]float32, group)
	for b := 0; b < blocks; b++ {
		for t := 0; t < group; t++ {
			i := b*group + t
			if i < n {
				sdata[t] = in[i]
			} else {
				sdata[t] = 0
			}
		}
		for s := group / 2; s >= 1; s /= 2 {
			for t := 0; t < s; t++ {
				sdata[t] += sdata[t+s]
			}
		}
		out[b] = sdata[0]
	}
	return out
}

func newReduction(v gpu.Vendor) (*gpu.HostProgram, error) {
	const n = reductionN
	const group = reductionGroup
	rng := stats.NewRNG(0x5eed0007)
	in := randFloats(rng, n, -1, 1)
	want := reductionGolden(in, n, group) // one partial sum per block

	out := floatOutput("reduction", want)
	return hostProgram("reduction", v, func(r *run) {
		addrIn := r.floats(in)
		out.addr = r.alloc(len(want))
		r.launch(reductionSASS, reductionSI, gpu.D1(len(want)), gpu.D1(group),
			[]uint32{addrIn, out.addr, n}, group)
	}, out)
}
