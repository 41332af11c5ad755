package workloads

import (
	"math"

	"repro/internal/gpu"
	"repro/internal/sass"
	"repro/internal/siasm"
	"repro/internal/stats"
)

// backprop (Rodinia): the layer-forward kernel of the back-propagation
// network. One block per hidden unit computes the weighted sum of the
// input layer with a shared-memory tree reduction, then thread 0 applies
// the sigmoid through the hardware exp2/rcp units:
// sigmoid(x) = 1 / (1 + 2^(-x*log2 e)).

const (
	bpIn    = 256 // input-layer units
	bpHid   = 64  // hidden-layer units
	bpGroup = 64  // threads per block (one block per hidden unit)
	// bpNegLog2E is -log2(e) written with the same decimal literal in
	// both kernel dialects.
	bpNegLog2E = float32(-1.4426950408889634)
)

const backpropSASSSrc = `
.kernel backprop
.shared 256                    ; 64*4 partial sums
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X         ; hidden unit j
    S2R R2, SR_NTID.X
    MOV R3, 0                  ; acc
    MOV R4, R0                 ; i = tid
bl:
    SHL R5, R4, 2
    IADD R5, R5, c[0]
    LDG R6, [R5]               ; input[i]
    IMUL R7, R4, c[4]
    IADD R7, R7, R1
    SHL R7, R7, 2
    IADD R7, R7, c[1]
    LDG R8, [R7]               ; w[i*hid+j]
    FMUL R9, R6, R8
    FADD R3, R3, R9
    IADD R4, R4, R2
    ISETP.LT P0, R4, c[3]
@P0 BRA bl
    SHL R10, R0, 2
    STS [R10], R3
    BAR.SYNC
    MOV R11, 32                ; stride
rl:
    SSY rle
    ISETP.GE P1, R0, R11
@P1 BRA rsk
    IADD R12, R0, R11
    SHL R13, R12, 2
    LDS R14, [R13]
    LDS R15, [R10]
    FADD R15, R15, R14
    STS [R10], R15
rsk:
    SYNC
rle:
    BAR.SYNC
    SHR R11, R11, 1
    ISETP.GE P2, R11, 1
@P2 BRA rl
    SSY fin
    ISETP.NE P3, R0, 0
@P3 BRA wsk
    LDS R16, [R10]
    MOV R17, -1.4426950408889634f
    FMUL R18, R16, R17
    MUFU.EX2 R19, R18
    MOV R20, 1.0f
    FADD R21, R19, R20
    MUFU.RCP R22, R21
    SHL R23, R1, 2
    IADD R23, R23, c[2]
    STG [R23], R22
wsk:
    SYNC
fin:
    EXIT
`

var backpropSASS = sass.MustAssemble(backpropSASSSrc)

const backpropSISrc = `
.kernel backprop
.lds 256
    s_load_dword s4, karg[0]       ; INPUT
    s_load_dword s5, karg[1]       ; W
    s_load_dword s6, karg[2]       ; OUT
    s_load_dword s7, karg[3]       ; nin
    s_load_dword s8, karg[4]       ; hid
    s_load_dword s9, karg[5]       ; group size
    v_mov_b32 v2, 0                ; acc
    v_mov_b32 v3, v0               ; i = tid
bl:
    v_lshlrev_b32 v4, 2, v3
    v_add_i32 v4, v4, s4
    buffer_load_dword v5, v4, 0    ; input[i]
    v_mul_i32 v6, v3, s8
    v_add_i32 v6, v6, s12          ; i*hid + j
    v_lshlrev_b32 v6, 2, v6
    v_add_i32 v6, v6, s5
    buffer_load_dword v7, v6, 0    ; w[i*hid+j]
    v_mul_f32 v8, v5, v7
    v_add_f32 v2, v2, v8
    v_add_i32 v3, v3, s9
    v_cmp_lt_i32 vcc, v3, s7
    s_cbranch_vccnz bl
    v_lshlrev_b32 v9, 2, v0
    ds_write_b32 v9, v2, 0
    s_barrier
    s_mov_b32 s10, 32              ; stride
rl:
    v_cmp_lt_i32 vcc, v0, s10
    s_and_saveexec_b64 s[14:15], vcc
    s_cbranch_execz rsk
    v_add_i32 v10, v0, s10
    v_lshlrev_b32 v11, 2, v10
    ds_read_b32 v12, v11, 0
    ds_read_b32 v13, v9, 0
    v_add_f32 v13, v13, v12
    ds_write_b32 v9, v13, 0
rsk:
    s_mov_b64 exec, s[14:15]
    s_barrier
    s_lshr_b32 s10, s10, 1
    s_cmp_ge_i32 s10, 1
    s_cbranch_scc1 rl
    v_cmp_eq_i32 vcc, v0, 0
    s_and_saveexec_b64 s[14:15], vcc
    s_cbranch_execz wsk
    ds_read_b32 v14, v9, 0
    v_mul_f32 v15, v14, -1.4426950408889634f
    v_exp_f32 v16, v15
    v_add_f32 v17, v16, 1.0f
    v_rcp_f32 v18, v17
    s_lshl_b32 s16, s12, 2
    v_mov_b32 v19, s16
    v_add_i32 v19, v19, s6
    buffer_store_dword v18, v19, 0
wsk:
    s_mov_b64 exec, s[14:15]
    s_endpgm
`

var backpropSI = siasm.MustAssemble(backpropSISrc)

// backpropGolden replicates the kernel float32 order: strided per-thread
// partial sums, shared-memory tree reduction, then the exp2/rcp sigmoid.
func backpropGolden(input, w []float32) []float32 {
	out := make([]float32, bpHid)
	partial := make([]float32, bpGroup)
	for j := 0; j < bpHid; j++ {
		for t := 0; t < bpGroup; t++ {
			var acc float32
			for i := t; i < bpIn; i += bpGroup {
				acc += input[i] * w[i*bpHid+j]
			}
			partial[t] = acc
		}
		for s := bpGroup / 2; s >= 1; s /= 2 {
			for t := 0; t < s; t++ {
				partial[t] += partial[t+s]
			}
		}
		x := partial[0] * bpNegLog2E
		e := float32(math.Exp2(float64(x)))
		out[j] = 1 / (e + 1)
	}
	return out
}

func newBackprop(v gpu.Vendor) (*gpu.HostProgram, error) {
	rng := stats.NewRNG(0x5eed0000)
	input := randFloats(rng, bpIn, -1, 1)
	w := randFloats(rng, bpIn*bpHid, -0.5, 0.5)

	out := floatOutput("backprop", backpropGolden(input, w))
	return hostProgram("backprop", v, func(r *run) {
		addrIn, addrW := r.floats(input), r.floats(w)
		out.addr = r.alloc(bpHid)
		r.launch(backpropSASS, backpropSI, gpu.D1(bpHid), gpu.D1(bpGroup),
			[]uint32{addrIn, addrW, out.addr, bpIn, bpHid}, bpGroup)
	}, out)
}
