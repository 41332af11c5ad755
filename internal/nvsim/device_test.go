package nvsim

import (
	"math"
	"testing"

	"repro/internal/chips"
	"repro/internal/gpu"
	"repro/internal/sass"
)

// vecAddSrc: c[0]=A, c[1]=B, c[2]=OUT, c[3]=n.
const vecAddSrc = `
.kernel vecadd
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    S2R R2, SR_NTID.X
    IMAD R3, R1, R2, R0       ; gid
    ISETP.GE P0, R3, c[3]
@P0 EXIT
    SHL R4, R3, 2
    IADD R5, R4, c[0]
    LDG R6, [R5]
    IADD R7, R4, c[1]
    LDG R8, [R7]
    FADD R9, R6, R8
    IADD R10, R4, c[2]
    STG [R10], R9
    EXIT
`

func newTestDevice(t *testing.T) *Device {
	t.Helper()
	d, err := New(chips.MiniNVIDIA())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

func TestVecAdd(t *testing.T) {
	d := newTestDevice(t)
	prog, err := sass.Assemble(vecAddSrc)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	const n = 100 // deliberately not a multiple of the block size
	a := make([]float32, n)
	b := make([]float32, n)
	for i := range a {
		a[i] = float32(i)
		b[i] = 2 * float32(i)
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
	err = d.Launch(gpu.LaunchSpec{
		Kernel: prog,
		Grid:   gpu.D1((n + 63) / 64),
		Group:  gpu.D1(64),
		Args:   []uint32{addrA, addrB, addrC, n},
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	got, err := d.Mem().ReadWords(addrC, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if want := 3 * float32(i); math.Float32frombits(got[i]) != want {
			t.Fatalf("out[%d] = %v, want %v", i, got[i], want)
		}
	}
	st := d.Stats()
	if st.Cycles <= 0 || st.Instructions <= 0 || st.LaneInstructions <= 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
	if st.LaneInstructions < int64(n) {
		t.Fatalf("lane instructions %d < n=%d", st.LaneInstructions, n)
	}
}

// divergeSrc writes 1 for even tids and 2 for odd tids through an
// if/else realized with SSY/SYNC.
const divergeSrc = `
.kernel diverge
    S2R R0, SR_TID.X
    AND R1, R0, 1
    ISETP.EQ P0, R1, 0
    SHL R2, R0, 2
    IADD R3, R2, c[0]
    SSY join
@!P0 BRA odd
    MOV R4, 1
    STG [R3], R4
    SYNC
odd:
    MOV R4, 2
    STG [R3], R4
    SYNC
join:
    EXIT
`

func TestDivergenceSSYSync(t *testing.T) {
	d := newTestDevice(t)
	prog, err := sass.Assemble(divergeSrc)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	const n = 64
	out, err := d.Mem().Alloc(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	err = d.Launch(gpu.LaunchSpec{
		Kernel: prog, Grid: gpu.D1(1), Group: gpu.D1(n),
		Args: []uint32{out},
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	got, err := d.Mem().ReadWords(out, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		want := uint32(1)
		if i%2 == 1 {
			want = 2
		}
		if v != want {
			t.Fatalf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

// reverseSharedSrc reverses 128 words within a block via shared memory,
// exercising STS/LDS and BAR.SYNC across multiple warps.
const reverseSharedSrc = `
.kernel revshared
.shared 512
    S2R R0, SR_TID.X
    SHL R1, R0, 2          ; tid*4
    IADD R2, R1, c[0]
    LDG R3, [R2]
    STS [R1], R3
    BAR.SYNC
    MOV R4, 127
    ISUB R5, R4, R0        ; 127-tid
    SHL R6, R5, 2
    LDS R7, [R6]
    IADD R8, R1, c[1]
    STG [R8], R7
    EXIT
`

func TestSharedMemoryBarrier(t *testing.T) {
	d := newTestDevice(t)
	prog, err := sass.Assemble(reverseSharedSrc)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	const n = 128
	in := make([]uint32, n)
	for i := range in {
		in[i] = uint32(1000 + i)
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
	if occ := d.Stats().Occupancy(gpu.LocalMemory, int64(2*8<<10)); occ <= 0 {
		t.Fatalf("expected positive local-memory occupancy, got %v", occ)
	}
}

func TestFaultInjectionFlipsOutput(t *testing.T) {
	prog, err := sass.Assemble(vecAddSrc)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
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
			Args: []uint32{addrA, addrB, addrC, n},
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
	// Flip a high mantissa bit of R6 (the loaded A value) of thread 0 at
	// a cycle early enough to hit the live interval in most schedules;
	// scan a few cycles to find one that manifests.
	manifested := false
	for c := int64(1); c < 2000 && !manifested; c += 7 {
		faulty := run(&gpu.Fault{
			Structure: gpu.RegisterFile, Unit: 0,
			Entry: 6 * chips.MiniNVIDIA().WarpWidth, Bit: 22, Cycle: c,
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

// layoutSrc writes tid+1000 into R1 of every lane, spins on R2, then
// stores R1 of lane l at word l of c[0].
const layoutSrc = `
.kernel layout
    S2R R0, SR_TID.X
    IADD R1, R0, 1000
    MOV R2, 0
wait:
    IADD R2, R2, 1
    ISETP.LT P0, R2, 100
@P0 BRA wait
    SHL R3, R0, 2
    IADD R3, R3, c[0]
    STG [R3], R1
    EXIT
`

// TestWarpRegisterIsOneRow pins the register layout: register r of lane
// l is entry RegBase + r*WarpWidth + l. The one warp sits at the start
// of unit 0's register file, so a flip of bit 3 of entry 1*32 + 5 while
// the kernel spins — after R1's write, before its store — changes lane
// 5's word by 1<<3 and no other word.
func TestWarpRegisterIsOneRow(t *testing.T) {
	prog, err := sass.Assemble(layoutSrc)
	if err != nil {
		t.Fatal(err)
	}
	run := func(f *gpu.Fault) ([]uint32, int64) {
		d := newTestDevice(t)
		out, err := d.Mem().Alloc(4 * 32)
		if err != nil {
			t.Fatal(err)
		}
		d.InjectFault(f)
		if err := d.Launch(gpu.LaunchSpec{Kernel: prog, Grid: gpu.D1(1), Group: gpu.D1(32), Args: []uint32{out}}); err != nil {
			t.Fatalf("Launch: %v", err)
		}
		words, err := d.Mem().ReadWords(out, 32)
		if err != nil {
			t.Fatal(err)
		}
		return words, d.Stats().Cycles
	}
	golden, cycles := run(nil)
	faulty, _ := run(&gpu.Fault{Structure: gpu.RegisterFile, Unit: 0, Entry: 1*32 + 5, Bit: 3, Cycle: cycles / 2})
	for l := range golden {
		want := uint32(0)
		if l == 5 {
			want = 1 << 3
		}
		if got := faulty[l] ^ golden[l]; got != want {
			t.Errorf("lane %d: word %d, golden %d: difference %#x, want %#x", l, faulty[l], golden[l], got, want)
		}
	}
}
