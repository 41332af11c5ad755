package workloads

import (
	"repro/internal/gpu"
	"repro/internal/sass"
	"repro/internal/siasm"
	"repro/internal/stats"
)

// dwtHaar1D: the SDK 1-D Haar discrete wavelet transform. Each thread
// stages one input pair through shared memory and emits the approximation
// (a+b)/sqrt2 and detail (a-b)/sqrt2 coefficients. The host runs two
// decomposition levels (the second level transforms the first level's
// approximation signal), exercising multi-launch host programs.

const (
	dwtN     = 2048
	dwtGroup = 64
	// dwtInvSqrt2 is 1/sqrt(2) rounded to float32, written with the same
	// decimal literal in both kernel dialects.
	dwtInvSqrt2 = float32(0.70710678)
)

const dwtSASSSrc = `
.kernel dwtHaar1D
.shared 512                    ; 64 pairs x 8B
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    S2R R2, SR_NTID.X
    IMAD R3, R1, R2, R0        ; gid (pair index)
    SHL R4, R3, 3              ; 2*gid*4
    IADD R4, R4, c[0]
    LDG R5, [R4]               ; in[2*gid]
    LDG R6, [R4+4]             ; in[2*gid+1]
    SHL R7, R0, 3              ; pair slot in shared
    STS [R7], R5
    STS [R7+4], R6
    BAR.SYNC
    LDS R8, [R7]
    LDS R9, [R7+4]
    FADD R10, R8, R9
    FSUB R11, R8, R9
    MOV R12, 0.70710678f
    FMUL R10, R10, R12
    FMUL R11, R11, R12
    SHL R13, R3, 2
    IADD R14, R13, c[1]
    STG [R14], R10             ; approx[gid]
    IADD R15, R13, c[2]
    STG [R15], R11             ; detail[gid]
    EXIT
`

var dwtSASS = sass.MustAssemble(dwtSASSSrc)

const dwtSISrc = `
.kernel dwtHaar1D
.lds 512
    s_load_dword s4, karg[0]       ; IN
    s_load_dword s5, karg[1]       ; APPROX
    s_load_dword s6, karg[2]       ; DETAIL
    s_load_dword s7, karg[3]       ; group size
    s_mul_i32 s8, s12, s7
    v_add_i32 v2, v0, s8           ; gid
    v_lshlrev_b32 v3, 3, v2        ; 2*gid*4
    v_add_i32 v3, v3, s4
    buffer_load_dword v4, v3, 0
    buffer_load_dword v5, v3, 4
    v_lshlrev_b32 v6, 3, v0        ; pair slot
    ds_write_b32 v6, v4, 0
    ds_write_b32 v6, v5, 4
    s_barrier
    ds_read_b32 v7, v6, 0
    ds_read_b32 v8, v6, 4
    v_add_f32 v9, v7, v8
    v_sub_f32 v10, v7, v8
    v_mul_f32 v9, v9, 0.70710678f
    v_mul_f32 v10, v10, 0.70710678f
    v_lshlrev_b32 v11, 2, v2
    v_add_i32 v12, v11, s5
    buffer_store_dword v9, v12, 0
    v_add_i32 v13, v11, s6
    buffer_store_dword v10, v13, 0
    s_endpgm
`

var dwtSI = siasm.MustAssemble(dwtSISrc)

// dwtGoldenLevel computes one decomposition level in kernel order.
func dwtGoldenLevel(in []float32) (approx, detail []float32) {
	half := len(in) / 2
	approx = make([]float32, half)
	detail = make([]float32, half)
	for i := 0; i < half; i++ {
		a, b := in[2*i], in[2*i+1]
		approx[i] = (a + b) * dwtInvSqrt2
		detail[i] = (a - b) * dwtInvSqrt2
	}
	return approx, detail
}

func newDWTHaar1D(v gpu.Vendor) (*gpu.HostProgram, error) {
	const n = dwtN
	rng := stats.NewRNG(0x5eed0002)
	in := randFloats(rng, n, -8, 8)
	a1, d1 := dwtGoldenLevel(in)
	a2, d2 := dwtGoldenLevel(a1)

	outA2 := floatOutput("dwtHaar1D(a2)", a2)
	outD2 := floatOutput("dwtHaar1D(d2)", d2)
	outD1 := floatOutput("dwtHaar1D(d1)", d1)
	return hostProgram("dwtHaar1D", v, func(r *run) {
		addrIn := r.floats(in)
		addrA1 := r.alloc(n / 2)
		outD1.addr = r.alloc(n / 2)
		outA2.addr = r.alloc(n / 4)
		outD2.addr = r.alloc(n / 4)
		level := func(src, approx, detail uint32, pairs int) {
			r.launch(dwtSASS, dwtSI, gpu.D1(pairs/dwtGroup), gpu.D1(dwtGroup),
				[]uint32{src, approx, detail}, dwtGroup)
		}
		level(addrIn, addrA1, outD1.addr, n/2)
		level(addrA1, outA2.addr, outD2.addr, n/4)
	}, outA2, outD2, outD1)
}
