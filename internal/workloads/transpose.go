package workloads

import (
	"repro/internal/gpu"
	"repro/internal/sass"
	"repro/internal/siasm"
	"repro/internal/stats"
)

// transpose: the SDK tiled matrix transpose. Each 8x8 thread block stages
// a tile through shared memory / LDS so that both the global read and the
// global write are coalesced; the shared tile is read back transposed.

const (
	transposeDim  = 64 // square matrix edge
	transposeTile = 8
)

const transposeSASSSrc = `
.kernel transpose
.shared 256                    ; 8*8*4 tile
    S2R R0, SR_TID.X
    S2R R1, SR_TID.Y
    S2R R2, SR_CTAID.X
    S2R R3, SR_CTAID.Y
    MOV R4, 8
    IMAD R5, R2, R4, R0        ; x = bx*8+tx
    IMAD R6, R3, R4, R1        ; y = by*8+ty
    IMAD R7, R6, c[2], R5      ; y*w + x
    SHL R7, R7, 2
    IADD R7, R7, c[0]
    LDG R8, [R7]
    IMAD R9, R1, R4, R0        ; ty*8+tx
    SHL R9, R9, 2
    STS [R9], R8
    BAR.SYNC
    IMAD R10, R3, R4, R0       ; xo = by*8+tx
    IMAD R11, R2, R4, R1       ; yo = bx*8+ty
    IMAD R12, R0, R4, R1       ; tx*8+ty
    SHL R12, R12, 2
    LDS R13, [R12]
    IMAD R14, R11, c[2], R10   ; yo*w + xo
    SHL R14, R14, 2
    IADD R14, R14, c[1]
    STG [R14], R13
    EXIT
`

var transposeSASS = sass.MustAssemble(transposeSASSSrc)

const transposeSISrc = `
.kernel transpose
.lds 256
    s_load_dword s4, karg[0]       ; IN
    s_load_dword s5, karg[1]       ; OUT
    s_load_dword s6, karg[2]       ; width
    s_lshl_b32 s14, s12, 3         ; bx*8
    s_lshl_b32 s15, s13, 3         ; by*8
    v_add_i32 v2, v0, s14          ; x
    v_add_i32 v3, v1, s15          ; y
    v_mul_i32 v4, v3, s6
    v_add_i32 v4, v4, v2
    v_lshlrev_b32 v4, 2, v4
    v_add_i32 v4, v4, s4
    buffer_load_dword v5, v4, 0
    v_lshlrev_b32 v6, 3, v1        ; ty*8
    v_add_i32 v6, v6, v0
    v_lshlrev_b32 v6, 2, v6
    ds_write_b32 v6, v5, 0
    s_barrier
    v_add_i32 v7, v0, s15          ; xo = by*8+tx
    v_add_i32 v8, v1, s14          ; yo = bx*8+ty
    v_lshlrev_b32 v9, 3, v0        ; tx*8
    v_add_i32 v9, v9, v1
    v_lshlrev_b32 v9, 2, v9
    ds_read_b32 v10, v9, 0
    v_mul_i32 v11, v8, s6
    v_add_i32 v11, v11, v7
    v_lshlrev_b32 v11, 2, v11
    v_add_i32 v11, v11, s5
    buffer_store_dword v10, v11, 0
    s_endpgm
`

var transposeSI = siasm.MustAssemble(transposeSISrc)

func newTranspose(v gpu.Vendor) (*gpu.HostProgram, error) {
	const w = transposeDim
	rng := stats.NewRNG(0x5eed0009)
	in := randFloats(rng, w*w, -10, 10)
	want := make([]float32, w*w)
	for y := 0; y < w; y++ {
		for x := 0; x < w; x++ {
			want[x*w+y] = in[y*w+x]
		}
	}

	out := floatOutput("transpose", want)
	return hostProgram("transpose", v, func(r *run) {
		addrIn := r.floats(in)
		out.addr = r.alloc(w * w)
		r.launch(transposeSASS, transposeSI,
			gpu.D2(w/transposeTile, w/transposeTile), gpu.D2(transposeTile, transposeTile),
			[]uint32{addrIn, out.addr, w})
	}, out)
}
