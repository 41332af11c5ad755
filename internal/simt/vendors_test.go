package simt_test

import (
	"testing"

	"repro/internal/amdsim"
	"repro/internal/chips"
	"repro/internal/gpu"
	"repro/internal/nvsim"
	"repro/internal/sass"
	"repro/internal/siasm"
)

// vendor is one row of the two-ISA table the machine tests run over: the
// machine core is shared, so every vendor-independent assertion is made
// once and checked on both plug-ins.
type vendor struct {
	name     string
	mini     func() *chips.Chip
	newDev   func(*chips.Chip) (gpu.Device, error)
	assemble func(src string) (gpu.Kernel, error)

	// pinSrc is the snapshot-meta pin kernel (args: IN, OUT, group size):
	// global loads, a local-memory exchange across a barrier and a
	// divergent region, so a mid-launch snapshot holds blocked, waiting
	// and diverged waves. pinGroup is its workgroup size and pinCycle the
	// device cycle the pinned snapshot is captured at: four groups
	// retired, one waiting at its barrier for a wave still loading, one
	// inside the divergent region.
	pinSrc   string
	pinGroup int
	pinCycle int64
	// trivial is the shortest valid kernel; spin never terminates.
	trivial, spin string
	// fat needs 64 KiB of local memory, more than any mini chip has.
	fat string
	// gtoSrc is the greedy-then-oldest wake-up reproducer (args: BUF and
	// the id of the one group that increments BUF[0] through a global
	// load while every other group retires after two ALU ops).
	gtoSrc string
	// localFault stores lane l's id at local byte 4*l of a 64-byte window,
	// so lane 16 is the first beyond it; globalFault stores lane l's id at
	// BUF + 4*l + l>>3, so lane 8 is the first misaligned (arg: BUF). Each
	// kernel is named after its field, and the store is at the given PC.
	localFault, globalFault     string
	localFaultPC, globalFaultPC int
}

var vendors = []vendor{
	{
		name: "nvsim",
		mini: chips.MiniNVIDIA,
		newDev: func(c *chips.Chip) (gpu.Device, error) {
			return nvsim.New(c)
		},
		assemble: func(src string) (gpu.Kernel, error) { return sass.Assemble(src) },
		pinSrc: `
.kernel pin
.shared 256
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    S2R R2, SR_NTID.X
    IMAD R3, R1, R2, R0       ; gid
    SHL R4, R3, 2
    IADD R5, R4, c[0]
    LDG R6, [R5]
    ISETP.LT P1, R0, 32
@P1 BRA stage                 ; warp 0 goes straight to the barrier
    AND R7, R1, 1
    ISETP.NE P2, R7, 0
@P2 BRA stage                 ; and so does warp 1 of odd blocks
    LDG R7, [R5]              ; warp 1 of even blocks loads again
    IADD R6, R6, R7
    ISUB R6, R6, R7
stage:
    SHL R7, R0, 2             ; tid*4
    STS [R7], R6
    BAR.SYNC
    AND R1, R0, 1
    ISETP.EQ P0, R1, 0
    SSY join
@!P0 BRA odd
    MOV R2, 63
    ISUB R2, R2, R0           ; 63-tid
    SHL R2, R2, 2
    LDS R6, [R2]
    SYNC
odd:
    LDG R6, [R5]
    IADD R6, R6, 1
    SYNC
join:
    IADD R5, R4, c[1]
    STG [R5], R6
    EXIT
`,
		pinGroup: 64,
		pinCycle: 404,
		trivial:  ".kernel c\nMOV R1, 1\nEXIT\n",
		spin:     ".kernel spin\nloop:\n    BRA loop\n    EXIT\n",
		fat:      ".kernel big\n.shared 65536\nEXIT\n",
		gtoSrc: `
.kernel gto
    S2R R0, SR_CTAID.X
    ISETP.NE P0, R0, c[1]
@P0 MOV R1, 1
@P0 EXIT
    MOV R2, c[0]
    LDG R3, [R2]
    IADD R3, R3, 1
    STG [R2], R3
    EXIT
`,
		localFault: `
.kernel localFault
.shared 64
    S2R R0, SR_TID.X
    SHL R1, R0, 2
    STS [R1], R0
    EXIT
`,
		localFaultPC: 2,
		globalFault: `
.kernel globalFault
    S2R R0, SR_TID.X
    SHR R2, R0, 3
    SHL R1, R0, 2
    IADD R1, R1, R2
    IADD R1, R1, c[0]
    STG [R1], R0
    EXIT
`,
		globalFaultPC: 5,
	},
	{
		name: "amdsim",
		mini: chips.MiniAMD,
		newDev: func(c *chips.Chip) (gpu.Device, error) {
			return amdsim.New(c)
		},
		assemble: func(src string) (gpu.Kernel, error) { return siasm.Assemble(src) },
		pinSrc: `
.kernel pin
.lds 512
    s_load_dword s4, karg[0]
    s_load_dword s5, karg[1]
    s_load_dword s6, karg[2]
    s_mul_i32 s7, s12, s6          ; wg_id * wg_size
    v_add_i32 v1, v0, s7           ; gid
    v_lshlrev_b32 v1, 2, v1        ; gid*4
    v_add_i32 v2, v1, s4
    buffer_load_dword v3, v2, 0
    v_cmp_lt_i32 vcc, v0, 64
    s_cbranch_vccnz stage          ; wave 0 goes straight to the barrier
    s_and_b32 s7, s12, 1
    s_cmp_eq_i32 s7, 1
    s_cbranch_scc1 stage           ; and so does wave 1 of odd groups
    buffer_load_dword v2, v2, 0    ; wave 1 of even groups loads again
    v_add_i32 v3, v3, v2
    v_sub_i32 v3, v3, v2
stage:
    v_lshlrev_b32 v2, 2, v0        ; lid*4
    ds_write_b32 v2, v3, 0
    s_barrier
    v_and_b32 v3, v0, 1
    v_cmp_eq_i32 vcc, v3, 0
    s_and_saveexec_b64 s[8:9], vcc
    s_cbranch_execz odd
    v_sub_i32 v3, 127, v0          ; 127-lid
    v_lshlrev_b32 v3, 2, v3
    ds_read_b32 v3, v3, 0
odd:
    s_andn2_b64 exec, s[8:9], exec
    s_cbranch_execz join
    v_add_i32 v2, v1, s4
    buffer_load_dword v3, v2, 0
    v_add_i32 v3, v3, 1
join:
    s_mov_b64 exec, s[8:9]
    v_add_i32 v2, v1, s5
    buffer_store_dword v3, v2, 0
    s_endpgm
`,
		pinGroup: 128,
		pinCycle: 520,
		trivial:  ".kernel c\nv_mov_b32 v1, 1\ns_endpgm\n",
		spin:     ".kernel spin\nloop:\n    s_branch loop\n    s_endpgm\n",
		fat:      ".kernel big\n.lds 65536\ns_endpgm\n",
		gtoSrc: `
.kernel gto
    s_load_dword s4, karg[0]
    s_load_dword s5, karg[1]
    s_cmp_eq_i32 s12, s5
    s_cbranch_scc1 last
    v_mov_b32 v1, 1
    s_endpgm
last:
    v_mov_b32 v1, s4
    buffer_load_dword v2, v1, 0
    v_add_i32 v2, v2, 1
    buffer_store_dword v2, v1, 0
    s_endpgm
`,
		localFault: `
.kernel localFault
.lds 64
    v_lshlrev_b32 v1, 2, v0
    ds_write_b32 v1, v0, 0
    s_endpgm
`,
		localFaultPC: 1,
		globalFault: `
.kernel globalFault
    s_load_dword s4, karg[0]
    v_lshrrev_b32 v2, 3, v0
    v_lshlrev_b32 v1, 2, v0
    v_add_i32 v1, v1, v2
    v_add_i32 v1, v1, s4
    buffer_store_dword v0, v1, 0
    s_endpgm
`,
		globalFaultPC: 5,
	},
}

// tiny returns a deliberately small configuration of the vendor's mini
// chip — two units, two resident groups each — so a snapshot meta blob
// (which embeds every unit's register file and local memory) stays a few
// KiB.
func (v vendor) tiny() *chips.Chip {
	c := v.mini()
	c.Name = "Tiny " + v.name
	c.Units = 2
	c.RegsPerUnit = 1024
	c.LocalBytesPerUnit = 1024
	c.MaxWarpsPerUnit = 4
	c.MaxGroupsPerUnit = 2
	c.GlobalMemBytes = 64 << 10
	return c
}

// other returns the vendor that is not v.
func (v vendor) other() vendor {
	if v.name == vendors[0].name {
		return vendors[1]
	}
	return vendors[0]
}

func (v vendor) mustAssemble(t testing.TB, src string) gpu.Kernel {
	t.Helper()
	k, err := v.assemble(src)
	if err != nil {
		t.Fatalf("%s: assemble: %v\n%s", v.name, err, src)
	}
	return k
}

func (v vendor) mustNew(t testing.TB, c *chips.Chip) gpu.Device {
	t.Helper()
	d, err := v.newDev(c)
	if err != nil {
		t.Fatalf("%s: New: %v", v.name, err)
	}
	return d
}

// pinBlocks is the pin launch's grid: more groups than the tiny chip
// holds at once, so a mid-launch snapshot has pending, resident and
// retired groups.
const pinBlocks = 6

// pinDrive is the pin kernel's deterministic host sequence; it returns
// the output region.
func (v vendor) pinDrive(d gpu.Device, k gpu.Kernel) (gpu.Region, error) {
	n := pinBlocks * v.pinGroup
	in := make([]uint32, n)
	for i := range in {
		in[i] = uint32(i) * 2654435761
	}
	addrIn, err := d.Mem().AllocWords(in)
	if err != nil {
		return gpu.Region{}, err
	}
	addrOut, err := d.Mem().Alloc(4 * n)
	if err != nil {
		return gpu.Region{}, err
	}
	out := gpu.Region{Addr: addrOut, Size: uint32(4 * n)}
	return out, d.Launch(gpu.LaunchSpec{
		Kernel: k, Grid: gpu.D1(pinBlocks), Group: gpu.D1(v.pinGroup),
		Args: []uint32{addrIn, addrOut, uint32(v.pinGroup)},
	})
}

// pinCapture runs the pin launch to completion on a fresh tiny device,
// capturing the mid-launch snapshot at pinCycle on the way.
func (v vendor) pinCapture(t testing.TB) (d gpu.Device, snap gpu.Snapshot, out gpu.Region) {
	t.Helper()
	k := v.mustAssemble(t, v.pinSrc)
	d = v.mustNew(t, v.tiny())
	d.SetCheckpointHook(v.pinCycle, func(s gpu.Snapshot) int64 {
		snap = s
		return -1
	})
	out, err := v.pinDrive(d, k)
	if err != nil {
		t.Fatalf("%s: pin launch: %v", v.name, err)
	}
	if snap == nil {
		t.Fatalf("%s: pin launch ended at cycle %d, before the snapshot cycle %d", v.name, d.Stats().Cycles, v.pinCycle)
	}
	return d, snap, out
}
