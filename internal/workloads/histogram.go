package workloads

import (
	"repro/internal/gpu"
	"repro/internal/sass"
	"repro/internal/siasm"
	"repro/internal/stats"
)

// histogram: 16-bin histogram in the SDK histogram64/256 style: every
// thread maintains a private sub-histogram row in shared memory (which
// avoids atomics, just like the per-thread sub-histogram trick of the SDK
// kernel), then the first 16 threads reduce the columns and emit one
// partial histogram per block; the host merges partials.

const (
	histBins     = 16
	histGroup    = 64
	histItems    = 16 // items per thread
	histBlocks   = 4
	histN        = histBlocks * histGroup * histItems
	histRowBytes = histBins * 4
)

const histogramSASSSrc = `
.kernel histogram
.shared 4096                   ; 64 rows x 16 bins x 4B
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    S2R R2, SR_NTID.X
    SHL R4, R0, 6              ; row base = tid*64 bytes
    MOV R3, 0                  ; bin clear loop
zl:
    SHL R5, R3, 2
    IADD R5, R5, R4
    MOV R6, 0
    STS [R5], R6
    IADD R3, R3, 1
    ISETP.LT P0, R3, c[3]
@P0 BRA zl
    IMAD R7, R1, R2, R0        ; linear thread id
    IMUL R8, R7, c[2]          ; first item index
    MOV R9, 0                  ; item loop
il:
    IADD R10, R8, R9
    SHL R11, R10, 2
    IADD R11, R11, c[0]
    LDG R12, [R11]
    AND R12, R12, 15           ; bin
    SHL R13, R12, 2
    IADD R13, R13, R4
    LDS R14, [R13]
    IADD R14, R14, 1
    STS [R13], R14
    IADD R9, R9, 1
    ISETP.LT P1, R9, c[2]
@P1 BRA il
    BAR.SYNC
    SSY fin
    ISETP.GE P2, R0, c[3]
@P2 BRA r_skip
    MOV R15, 0                 ; column sum
    MOV R16, 0                 ; row loop
rl:
    SHL R17, R16, 6
    SHL R18, R0, 2
    IADD R18, R18, R17
    LDS R19, [R18]
    IADD R15, R15, R19
    IADD R16, R16, 1
    ISETP.LT P3, R16, R2
@P3 BRA rl
    IMUL R20, R1, c[3]
    IADD R20, R20, R0
    SHL R21, R20, 2
    IADD R21, R21, c[1]
    STG [R21], R15
r_skip:
    SYNC
fin:
    EXIT
`

var histogramSASS = sass.MustAssemble(histogramSASSSrc)

const histogramSISrc = `
.kernel histogram
.lds 4096
    s_load_dword s4, karg[0]       ; IN
    s_load_dword s5, karg[1]       ; OUT
    s_load_dword s6, karg[2]       ; items per thread
    s_load_dword s7, karg[3]       ; bins
    s_load_dword s8, karg[4]       ; group size
    v_lshlrev_b32 v2, 6, v0        ; row base = tid*64
    s_mov_b32 s9, 0
zl:
    s_lshl_b32 s10, s9, 2
    v_add_i32 v3, v2, s10
    v_mov_b32 v4, 0
    ds_write_b32 v3, v4, 0
    s_add_i32 s9, s9, 1
    s_cmp_lt_i32 s9, s7
    s_cbranch_scc1 zl
    s_mul_i32 s11, s12, s8
    v_add_i32 v5, v0, s11          ; linear thread id
    v_mul_i32 v5, v5, s6           ; first item index
    s_mov_b32 s9, 0
il:
    v_add_i32 v6, v5, s9
    v_lshlrev_b32 v6, 2, v6
    v_add_i32 v6, v6, s4
    buffer_load_dword v7, v6, 0
    v_and_b32 v7, v7, 15
    v_lshlrev_b32 v7, 2, v7
    v_add_i32 v7, v7, v2
    ds_read_b32 v8, v7, 0
    v_add_i32 v8, v8, 1
    ds_write_b32 v7, v8, 0
    s_add_i32 s9, s9, 1
    s_cmp_lt_i32 s9, s6
    s_cbranch_scc1 il
    s_barrier
    v_cmp_lt_i32 vcc, v0, s7
    s_and_saveexec_b64 s[14:15], vcc
    s_cbranch_execz r_end
    v_mov_b32 v9, 0                ; column sum
    s_mov_b32 s9, 0                ; row loop
rl:
    s_lshl_b32 s10, s9, 6
    v_lshlrev_b32 v10, 2, v0
    v_add_i32 v10, v10, s10
    ds_read_b32 v11, v10, 0
    v_add_i32 v9, v9, v11
    s_add_i32 s9, s9, 1
    s_cmp_lt_i32 s9, s8
    s_cbranch_scc1 rl
    s_mul_i32 s16, s12, s7
    v_add_i32 v12, v0, s16
    v_lshlrev_b32 v12, 2, v12
    v_add_i32 v12, v12, s5
    buffer_store_dword v9, v12, 0
r_end:
    s_mov_b64 exec, s[14:15]
    s_endpgm
`

var histogramSI = siasm.MustAssemble(histogramSISrc)

// histogramGolden computes per-block partial histograms.
func histogramGolden(in []uint32) []uint32 {
	out := make([]uint32, histBlocks*histBins)
	perBlock := histGroup * histItems
	for i, v := range in {
		b := i / perBlock
		out[b*histBins+int(v&15)]++
	}
	return out
}

func newHistogram(v gpu.Vendor) (*gpu.HostProgram, error) {
	rng := stats.NewRNG(0x5eed0004)
	in := randWords(rng, histN, 1<<16) // only the low 4 bits bin

	out := wordOutput("histogram", histogramGolden(in))
	return hostProgram("histogram", v, func(r *run) {
		addrIn := r.words(in)
		out.addr = r.alloc(histBlocks * histBins)
		r.launch(histogramSASS, histogramSI, gpu.D1(histBlocks), gpu.D1(histGroup),
			[]uint32{addrIn, out.addr, histItems, histBins}, histGroup)
	}, out)
}
