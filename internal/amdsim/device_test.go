package amdsim

import (
	"math"
	"testing"

	"repro/internal/chips"
	"repro/internal/gpu"
	"repro/internal/siasm"
)

// vecAddSI: karg[0]=A, karg[1]=B, karg[2]=OUT, karg[3]=n, karg[4]=group size.
const vecAddSI = `
.kernel vecadd
    s_load_dword s4, karg[0]
    s_load_dword s5, karg[1]
    s_load_dword s6, karg[2]
    s_load_dword s7, karg[3]
    s_load_dword s8, karg[4]
    s_mul_i32 s9, s12, s8          ; wg_id * wg_size
    v_add_i32 v2, v0, s9           ; gid
    v_cmp_lt_i32 vcc, v2, s7
    s_and_saveexec_b64 s[10:11], vcc
    s_cbranch_execz done
    v_lshlrev_b32 v3, 2, v2        ; gid*4
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

func newTestDevice(t *testing.T) *Device {
	t.Helper()
	d, err := New(chips.MiniAMD())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

func TestVecAddSI(t *testing.T) {
	d := newTestDevice(t)
	prog, err := siasm.Assemble(vecAddSI)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	const n = 200 // not a multiple of the workgroup size
	a := make([]float32, n)
	b := make([]float32, n)
	for i := range a {
		a[i] = float32(i)
		b[i] = 3 * float32(i)
	}
	addrA, err := d.Mem().AllocFloats(a)
	if err != nil {
		t.Fatal(err)
	}
	addrB, err := d.Mem().AllocFloats(b)
	if err != nil {
		t.Fatal(err)
	}
	addrC, err := d.Mem().Alloc(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	const wg = 128
	err = d.Launch(gpu.LaunchSpec{
		Kernel: prog,
		Grid:   gpu.D1((n + wg - 1) / wg),
		Group:  gpu.D1(wg),
		Args:   []uint32{addrA, addrB, addrC, n, wg},
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	got, err := d.Mem().ReadWords(addrC, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if want := 4 * float32(i); math.Float32frombits(got[i]) != want {
			t.Fatalf("out[%d] = %v, want %v", i, got[i], want)
		}
	}
	if st := d.Stats(); st.Cycles <= 0 || st.Instructions <= 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
}

// reverseLDS reverses 128 words within a workgroup through the LDS.
const reverseLDS = `
.kernel revlds
.lds 512
    s_load_dword s4, karg[0]
    s_load_dword s5, karg[1]
    v_lshlrev_b32 v2, 2, v0        ; lid*4
    v_add_i32 v3, v2, s4
    buffer_load_dword v4, v3, 0
    ds_write_b32 v2, v4, 0
    s_barrier
    v_sub_i32 v5, 127, v0          ; 127-lid
    v_lshlrev_b32 v6, 2, v5
    ds_read_b32 v7, v6, 0
    v_add_i32 v8, v2, s5
    buffer_store_dword v7, v8, 0
    s_endpgm
`

func TestLDSBarrier(t *testing.T) {
	d := newTestDevice(t)
	prog, err := siasm.Assemble(reverseLDS)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	const n = 128
	in := make([]uint32, n)
	for i := range in {
		in[i] = uint32(7000 + i)
	}
	addrIn, err := d.Mem().AllocWords(in)
	if err != nil {
		t.Fatal(err)
	}
	addrOut, err := d.Mem().Alloc(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	err = d.Launch(gpu.LaunchSpec{
		Kernel: prog, Grid: gpu.D1(1), Group: gpu.D1(n),
		Args: []uint32{addrIn, addrOut},
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	got, err := d.Mem().ReadWords(addrOut, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if want := in[n-1-i]; v != want {
			t.Fatalf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

// cndmaskSrc writes max(x, 100) using v_cmp + v_cndmask.
const cndmaskSrc = `
.kernel clamp
    s_load_dword s4, karg[0]
    v_lshlrev_b32 v2, 2, v0
    v_add_i32 v3, v2, s4
    buffer_load_dword v4, v3, 0
    v_cmp_gt_i32 vcc, v4, 100
    v_cndmask_b32 v5, 100, v4, vcc
    buffer_store_dword v5, v3, 0
    s_endpgm
`

func TestCndmask(t *testing.T) {
	d := newTestDevice(t)
	prog, err := siasm.Assemble(cndmaskSrc)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	const n = 64
	in := make([]uint32, n)
	for i := range in {
		in[i] = uint32(i * 7)
	}
	addr, err := d.Mem().AllocWords(in)
	if err != nil {
		t.Fatal(err)
	}
	err = d.Launch(gpu.LaunchSpec{
		Kernel: prog, Grid: gpu.D1(1), Group: gpu.D1(n),
		Args: []uint32{addr},
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	got, err := d.Mem().ReadWords(addr, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		want := uint32(i * 7)
		if want < 100 {
			want = 100
		}
		if v != want {
			t.Fatalf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

func TestFaultInjectionFlipsVGPR(t *testing.T) {
	prog, err := siasm.Assemble(vecAddSI)
	if err != nil {
		t.Fatal(err)
	}
	run := func(f *gpu.Fault) []uint32 {
		d := newTestDevice(t)
		const n = 64
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = 1
			b[i] = 2
		}
		addrA, _ := d.Mem().AllocFloats(a)
		addrB, _ := d.Mem().AllocFloats(b)
		addrC, _ := d.Mem().Alloc(4 * n)
		d.InjectFault(f)
		err := d.Launch(gpu.LaunchSpec{
			Kernel: prog, Grid: gpu.D1(1), Group: gpu.D1(n),
			Args: []uint32{addrA, addrB, addrC, n, n},
		})
		if err != nil {
			t.Fatalf("Launch: %v", err)
		}
		out, err := d.Mem().ReadWords(addrC, n)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	golden := run(nil)
	manifested := false
	// v5 holds the loaded A value: physical entries 5*64..5*64+63.
	for c := int64(1); c < 4000 && !manifested; c += 11 {
		faulty := run(&gpu.Fault{
			Structure: gpu.RegisterFile, Unit: 0,
			Entry: 5*64 + 3, Bit: 22, Cycle: c,
		})
		for i := range faulty {
			if faulty[i] != golden[i] {
				manifested = true
				break
			}
		}
	}
	if !manifested {
		t.Fatal("no injection manifested as SDC across the scanned cycles")
	}
}
