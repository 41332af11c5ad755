// Package gpu defines the vendor-neutral substrate shared by the NVIDIA
// (nvsim) and AMD (amdsim) microarchitectural simulators and by the
// reliability analyses built on top of them: device global memory, launch
// geometry, the kernel ABI, hardware-structure identifiers, the fault
// model, access-trace hooks for ACE analysis, run statistics, the
// snapshot contract of checkpointed replay, and Pages, the copy-on-write
// paged array under device memory and every unit's storage.
//
// The fault-injection and ACE engines only ever talk to a Device; the two
// simulators plug in underneath, exactly as GUFI (on GPGPU-Sim) and SIFI
// (on Multi2Sim) share one methodology over two simulators in the paper.
package gpu

import (
	"errors"
	"fmt"
)

// Vendor distinguishes the two simulated GPU families.
type Vendor int

// Supported vendors.
const (
	NVIDIA Vendor = iota
	AMD
)

// String returns the vendor name.
func (v Vendor) String() string {
	switch v {
	case NVIDIA:
		return "NVIDIA"
	case AMD:
		return "AMD"
	default:
		return fmt.Sprintf("Vendor(%d)", int(v))
	}
}

// Structure identifies a fault-injection / ACE-analysis target structure.
type Structure int

// The two structures the paper evaluates.
const (
	// RegisterFile is the per-SM (NVIDIA) or per-CU vector (AMD VGPR)
	// register file, addressed as 32-bit entries.
	RegisterFile Structure = iota
	// LocalMemory is the NVIDIA shared memory / AMD local data share,
	// addressed as bytes.
	LocalMemory
)

// MarshalText renders the structure name in JSON/text encodings.
func (s Structure) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a structure name produced by MarshalText.
func (s *Structure) UnmarshalText(b []byte) error {
	switch string(b) {
	case "register-file":
		*s = RegisterFile
	case "local-memory":
		*s = LocalMemory
	default:
		return fmt.Errorf("gpu: unknown structure %q", b)
	}
	return nil
}

// String returns the structure name used in reports.
func (s Structure) String() string {
	switch s {
	case RegisterFile:
		return "register-file"
	case LocalMemory:
		return "local-memory"
	default:
		return fmt.Sprintf("Structure(%d)", int(s))
	}
}

// Outcome classifies the result of one fault-injection experiment.
type Outcome int

// Fault-injection outcome taxonomy, matching the classification used by
// GUFI/SIFI: a flip is Masked when the program output is bit-identical to
// the golden run; SDC when the program terminates normally with corrupted
// output; DUE when the simulator detects a fatal condition (invalid
// memory access, invalid PC, malformed execution); Timeout when the
// execution exceeds the watchdog cycle budget (hang / livelock).
const (
	OutcomeMasked Outcome = iota
	OutcomeSDC
	OutcomeDUE
	OutcomeTimeout
	outcomeCount
)

// NumOutcomes is the number of distinct outcome classes.
const NumOutcomes = int(outcomeCount)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case OutcomeMasked:
		return "masked"
	case OutcomeSDC:
		return "sdc"
	case OutcomeDUE:
		return "due"
	case OutcomeTimeout:
		return "timeout"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// MarshalText renders the outcome name in JSON/text encodings.
func (o Outcome) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// UnmarshalText parses an outcome name produced by MarshalText.
func (o *Outcome) UnmarshalText(b []byte) error {
	switch string(b) {
	case "masked":
		*o = OutcomeMasked
	case "sdc":
		*o = OutcomeSDC
	case "due":
		*o = OutcomeDUE
	case "timeout":
		*o = OutcomeTimeout
	default:
		return fmt.Errorf("gpu: unknown outcome %q", b)
	}
	return nil
}

// Dim3 is a 3-dimensional launch extent (grid or workgroup geometry).
type Dim3 struct {
	X, Y, Z int
}

// D1 builds a 1-dimensional extent.
func D1(x int) Dim3 { return Dim3{X: x, Y: 1, Z: 1} }

// D2 builds a 2-dimensional extent.
func D2(x, y int) Dim3 { return Dim3{X: x, Y: y, Z: 1} }

// Count returns the total number of elements in the extent.
func (d Dim3) Count() int {
	x, y, z := d.X, d.Y, d.Z
	if x <= 0 {
		x = 1
	}
	if y <= 0 {
		y = 1
	}
	if z <= 0 {
		z = 1
	}
	return x * y * z
}

// String renders the extent as (x,y,z).
func (d Dim3) String() string { return fmt.Sprintf("(%d,%d,%d)", d.X, d.Y, d.Z) }

// Kernel is the device-specific compiled kernel handle. nvsim accepts
// *sass.Program, amdsim accepts *siasm.Program; the Launch implementation
// type-asserts. Resource metadata is exposed so occupancy can be computed
// uniformly.
type Kernel interface {
	// KernelName returns the kernel's entry name.
	KernelName() string
	// VectorRegsPerThread returns the number of 32-bit vector registers
	// each work-item needs.
	VectorRegsPerThread() int
	// LocalBytesPerGroup returns the local/shared memory footprint of one
	// workgroup in bytes.
	LocalBytesPerGroup() int
}

// LaunchSpec describes one kernel launch enqueued by a host program.
type LaunchSpec struct {
	Kernel Kernel
	// Grid is the number of workgroups (thread blocks) per dimension.
	Grid Dim3
	// Group is the workgroup (thread block) size per dimension.
	Group Dim3
	// Args are the kernel parameters as 32-bit words: scalars and device
	// buffer addresses. NVIDIA kernels read them from the constant bank
	// (c[i]); AMD kernels load them from the kernarg segment (karg[i]).
	Args []uint32
}

// Fault describes one transient single-bit flip to inject.
type Fault struct {
	Structure Structure
	// Unit is the SM (NVIDIA) or CU (AMD) index.
	Unit int
	// Entry addresses the storage within the unit: a 32-bit register-file
	// entry index for RegisterFile, a byte offset for LocalMemory.
	Entry int
	// Bit is the bit position within the entry (0-31 for the register
	// file, 0-7 for local memory bytes).
	Bit uint
	// Width is the number of adjacent bits to flip starting at Bit
	// (values < 2 mean the paper's single-bit model; the burst is
	// truncated at the entry's top bit).
	Width uint
	// Cycle is the global device cycle at which the flip occurs.
	Cycle int64
}

// Mask returns the flip mask of the fault within an entry of the given
// bit width (32 for register entries, 8 for local-memory bytes).
func (f Fault) Mask(entryBits int) uint32 {
	w := f.Width
	if w < 1 {
		w = 1
	}
	b := f.Bit % uint(entryBits)
	var m uint32
	for i := uint(0); i < w && b+i < uint(entryBits); i++ {
		m |= 1 << (b + i)
	}
	return m
}

// String renders the fault site.
func (f Fault) String() string {
	w := f.Width
	if w < 1 {
		w = 1
	}
	return fmt.Sprintf("%s unit=%d entry=%d bit=%d width=%d cycle=%d",
		f.Structure, f.Unit, f.Entry, f.Bit, w, f.Cycle)
}

// Tracer receives architectural access events for ACE lifetime analysis.
// All callbacks use global device cycles. Implementations must be cheap:
// the simulator invokes them on every register and local-memory access of
// a traced run. Register events are per instruction, one per operand
// covering its lanes; local-memory events are per lane, since each lane's
// offset is data. A nil tracer disables tracing.
type Tracer interface {
	// RegAccess reports a 32-bit register-file access of entry base+l
	// for every lane l set in lanes, in lane order; a scalar access is
	// lanes = 1.
	RegAccess(unit, base int, lanes uint64, cycle int64, write bool)
	// LocalAccess reports a local/shared memory access of size bytes.
	LocalAccess(unit, offset, size int, cycle int64, write bool)
	// RegAlloc and RegFree bracket the residency of a workgroup's
	// register allocation [base, base+count).
	RegAlloc(unit, base, count int, cycle int64)
	RegFree(unit, base, count int, cycle int64)
	// LocalAlloc and LocalFree bracket a workgroup's local-memory
	// allocation [base, base+size).
	LocalAlloc(unit, base, size int, cycle int64)
	LocalFree(unit, base, size int, cycle int64)
}

// OccStats accumulates time-weighted occupancy of one structure:
// AllocUnitCycles counts entry-cycles (register entries or bytes) during
// which the storage was allocated to a resident workgroup; capacity and
// elapsed cycles convert it to the occupancy fraction of Fig. 1/2.
type OccStats struct {
	AllocUnitCycles float64
}

// RunStats aggregates execution statistics across all launches of a host
// program on one device.
type RunStats struct {
	// Cycles is the total device cycle count (the union of all launches;
	// launches execute back to back).
	Cycles int64
	// Instructions counts dynamic warp/wavefront instructions issued.
	Instructions int64
	// LaneInstructions counts per-work-item executed instruction slots
	// (active lanes only).
	LaneInstructions int64
	// Launches is the number of kernel launches executed.
	Launches int
	// RegOcc and LocalOcc accumulate structure occupancy.
	RegOcc   OccStats
	LocalOcc OccStats
}

// Occupancy returns the time-weighted fraction of the structure's capacity
// that was allocated, given the structure capacity in entries (register
// entries or bytes) summed over all units.
func (s RunStats) Occupancy(st Structure, totalEntries int64) float64 {
	if s.Cycles == 0 || totalEntries == 0 {
		return 0
	}
	var alloc float64
	switch st {
	case RegisterFile:
		alloc = s.RegOcc.AllocUnitCycles
	case LocalMemory:
		alloc = s.LocalOcc.AllocUnitCycles
	}
	return alloc / (float64(totalEntries) * float64(s.Cycles))
}

// Snapshot is an opaque, immutable image of a device's complete
// execution state, captured at a scheduling boundary by Device.Snapshot
// or by a checkpoint hook during Launch. Snapshots never alias mutable
// device storage (memory pages are copy-on-write: shared between images
// but immutable once captured), so one snapshot can be restored
// concurrently into any number of device instances of the same chip
// configuration (the fault-injection engine shares one golden checkpoint
// ladder across its whole worker pool of per-worker device replicas).
type Snapshot interface {
	// Cycle returns the global device cycle the snapshot was captured at.
	Cycle() int64
	// SizeBytes estimates the snapshot's memory footprint, used to size
	// checkpoint ladders against a memory budget.
	SizeBytes() int64
}

// RestoreCoster accounts the page-level cost of COW snapshot restores.
// Counters are cumulative; the fault-injection engine reads deltas
// around each restore.
type RestoreCoster interface {
	RestorePageStats() (copiedPages, sharedPages int64)
}

// Device is the simulator-side contract the reliability engines program
// against.
type Device interface {
	RestoreCoster
	// Mem returns the device global memory.
	Mem() *Memory
	// Launch synchronously executes one kernel launch.
	Launch(spec LaunchSpec) error
	// Stats returns execution statistics accumulated since the last Reset.
	Stats() RunStats
	// Reset restores the device to power-on state: zeroed structures,
	// memory, statistics and cycle counter. It also clears the armed
	// fault, the tracer, the watchdog override and the checkpoint hook.
	Reset()
	// InjectFault arms a single-bit flip for the next execution; a nil
	// fault disarms. The flip is applied to the physical storage when the
	// device cycle counter reaches Fault.Cycle, whether or not the target
	// is allocated at that time.
	InjectFault(f *Fault)
	// SetTracer installs an access tracer (nil disables tracing).
	SetTracer(t Tracer)
	// SetWatchdog bounds execution: any launch that exceeds maxCycles
	// device cycles aborts with ErrWatchdog. Zero restores the default.
	SetWatchdog(maxCycles int64)
	// Snapshot captures the complete execution state between launches.
	// Mid-launch snapshots are only reachable through the checkpoint
	// hook, which fires at a deterministic scheduling boundary.
	Snapshot() Snapshot
	// Restore replaces the device's execution state (memory, structure
	// contents, scheduler/queue state, cycle counter, accumulated stats
	// and launch progress) with the snapshot's, arming fast-forward
	// resume: the host program is then replayed from its start, device
	// memory suppresses the host's already-applied allocations and
	// uploads, completed launches return immediately, and the launch the
	// snapshot interrupted resumes from the captured state. The armed
	// fault, tracer and watchdog are left untouched. Restoring a
	// snapshot from a different implementation or chip geometry fails.
	Restore(s Snapshot) error
	// SetCheckpointHook arms periodic state capture during Launch: when
	// the device cycle first reaches next, the device captures a
	// Snapshot at the launch loop's scheduling boundary and hands it to
	// fn; fn returns the next capture cycle (a value not beyond the
	// current cycle stops further captures). A nil fn disarms. Reset
	// clears the hook.
	SetCheckpointHook(next int64, fn func(s Snapshot) int64)
	// Units returns the number of SMs/CUs.
	Units() int
	// StructSize returns the per-unit capacity of a structure in entries:
	// 32-bit entries for RegisterFile, bytes for LocalMemory.
	StructSize(st Structure) int
}

// EntryBits returns the number of bits in one entry of the structure.
func EntryBits(st Structure) int {
	if st == RegisterFile {
		return 32
	}
	return 8
}

// ErrWatchdog is returned by Device.Launch when the watchdog cycle budget
// is exhausted; the fault-injection engine classifies it as a hang.
var ErrWatchdog = errors.New("gpu: watchdog cycle budget exhausted")

// Region is an address range in device global memory.
type Region struct {
	Addr uint32
	Size uint32
}

// HostProgram is a complete, deterministic host-side driver for one
// benchmark build: it owns pre-generated inputs and a CPU golden model.
type HostProgram struct {
	// Name is the benchmark name, e.g. "matrixMul".
	Name string
	// Run allocates device buffers, uploads inputs and executes every
	// kernel launch of the benchmark on the device.
	Run func(d Device) error
	// Outputs lists the device regions holding program outputs after Run;
	// the fault-injection engine diffs them bitwise against the golden
	// run's regions.
	Outputs func() []Region
	// Verify checks device outputs against the CPU golden model with the
	// benchmark's tolerance. It validates simulator correctness in tests;
	// fault classification uses the bitwise Outputs diff instead.
	Verify func(d Device) error
}
