// Package simt is the vendor-neutral machine core both GPU simulators run
// on: a chip is a set of compute units (NVIDIA SMs, AMD CUs), each with a
// register file, a local memory and a table of resident workgroup slots.
// Workgroups are dispatched to units subject to the chip's residency
// limits; their waves (NVIDIA warps, AMD wavefronts) are arbitrated
// round-robin or greedy-then-oldest, IssueWidth wave instructions per
// unit every IssuePeriod cycles, with per-wave register scoreboarding.
// Values are written architecturally at issue and become visible to
// dependents after the instruction latency — the standard trade-off for
// fault-injection simulators: the physical register file always holds the
// architectural values a bit flip would corrupt on real hardware.
//
// What an instruction does is the business of an ISA plug-in (see ISA):
// internal/nvsim supplies the SASS-like executor with its SIMT
// reconvergence stack, internal/amdsim the Southern-Islands-like executor
// with its scalar unit and EXEC mask. Everything else — the gpu.Device
// contract, launch loop, watchdog, fault application, tracer allocation
// events, occupancy accounting, checkpoint snapshots and their wire
// codec — exists once, here.
package simt

import (
	"fmt"

	"repro/internal/chips"
	"repro/internal/gpu"
)

// defaultWatchdog is the per-launch cycle budget when none is set.
const defaultWatchdog = 50_000_000

// never is the "no wake-up pending" sentinel of the issue scan.
const never = int64(1) << 62

// Device is one simulated GPU executing the ISA whose per-wave
// architectural state is W. It implements gpu.Device, gpu.SnapshotCodec
// and gpu.RestoreCoster.
type Device[W any] struct {
	// Chip is the configuration being simulated.
	Chip *chips.Chip
	// Cycle is the global device cycle, monotonic across launches. ISA
	// code reads it; only the launch loop advances it.
	Cycle int64
	// Tracer receives register and local-memory access events from ISA
	// code (and allocation events from the core); nil disables tracing.
	Tracer gpu.Tracer

	isa   ISA[W]
	mem   *gpu.Memory
	units []*Unit[W]
	stats gpu.RunStats

	fault        *gpu.Fault
	faultApplied bool
	watchdog     int64

	// Checkpoint hook (armed on golden runs only; see snapshot.go).
	ckptFn   func(s gpu.Snapshot) int64
	ckptNext int64
	// resume is non-nil between Restore and the fast-forward re-entry.
	resume *resumeState
}

// Unit is one SM / CU: the fault-injection target structures and the
// resident workgroups.
type Unit[W any] struct {
	// ID is the unit index, as reported to the tracer.
	ID int
	// Regs is the physical vector register file; Local the shared memory
	// / LDS. ISA code indexes both directly on the per-lane path.
	Regs  []uint32
	Local []byte
	// unitStore owns the two arrays and what is known about their pages
	// (see its comment for who tells it about writes).
	unitStore

	blocks   []*Block[W] // indexed by slot; nil = free
	rr       int         // round-robin issue pointer
	greedy   *Wave[W]    // GTO: wave that issued most recently
	liveWave int         // resident non-retired waves

	// order is the issue scan's scratch slice, rebuilt every cycle.
	// Keeping it on the unit (instead of a per-cycle allocation) removes
	// the dominant allocation site of the whole injection loop — ~95% of
	// bytes allocated per campaign came from rebuilding this slice.
	order []*Wave[W]
	// free recycles retired block objects (with their wave objects and
	// per-wave slices) so dispatch and snapshot-restore stop allocating;
	// every field is rewritten on reuse.
	free []*Block[W]
}

// unitStore is a unit's fault-target storage on copy-on-write pages
// (gpu.Pages, the scheme of device memory): Unit.Regs and Unit.Local are
// the Data() of the two. The per-lane accessors of the ISAs write those
// arrays and report nothing here, so the machine drops a page's identity
// instead, for every page a write could reach before the next capture,
// restore or reset:
//
//   - dispatch drops the pages under a block's windows before InitWave,
//     and image and setImage leave the pages under every resident block
//     without an identity, because a resident block keeps writing;
//   - applyFault drops the page it flips an entry in.
//
// That is complete on two premises. Every write of the arrays is one of
// the named accessors or the fault (TestStorageAccessIsTraced), and an
// accessor stays inside the windows of the block its wave belongs to, in
// faulty runs too: register numbers are fields of the instruction and
// local addresses are bounds-checked against the block's LocalCount
// (TestStoresStayInsideTheBlock; the package's tests also compare every
// capture and every restore against a flat copy, pagecheck_test.go).
type unitStore struct {
	regPages   gpu.Pages[uint32]
	localPages gpu.Pages[byte]
}

// unitImage is the immutable paged image of a unitStore; owned counts
// the pages it does not share with an older image.
type unitImage struct {
	regs  [][]uint32
	local [][]byte
	owned int
}

// written drops the identity of every page under the block's windows.
func (s *unitStore) written(b *BlockState) {
	if b.RegCount > 0 {
		s.regPages.Dirty(b.RegBase, b.RegCount)
	}
	if b.LocalCount > 0 {
		s.localPages.Dirty(b.LocalBase, b.LocalCount)
	}
}

// image captures both arrays: pages that have an identity are shared
// with the image that already holds them, the others copied.
func (s *unitStore) image(unit int) unitImage {
	var img unitImage
	var nr, nl int
	img.regs, nr = s.regPages.Capture(s.regPages.NumPages())
	img.local, nl = s.localPages.Capture(s.localPages.NumPages())
	img.owned = nr + nl
	if pageCheck != nil {
		pageCheck("capture", unit, s, &img)
	}
	return img
}

// setImage makes both arrays equal to img, copying only the pages whose
// identity is not already the image's.
func (s *unitStore) setImage(unit int, img *unitImage) {
	s.regPages.Restore(img.regs)
	s.localPages.Restore(img.local)
	if pageCheck != nil {
		pageCheck("restore", unit, s, img)
	}
}

// zero returns both arrays to power-on state, clearing only the pages
// that are not already the zero page.
func (s *unitStore) zero() {
	s.regPages.Zero(0, s.regPages.NumPages())
	s.localPages.Zero(0, s.localPages.NumPages())
}

// restoreStats sums the two arrays' gpu.Pages.RestoreStats.
func (s *unitStore) restoreStats() (copied, shared int64) {
	rc, rs := s.regPages.RestoreStats()
	lc, ls := s.localPages.RestoreStats()
	return rc + lc, rs + ls
}

// pageCheck is nil outside this package's tests, which set it before any
// of them runs (pagecheck_test.go) to compare every capture and restore
// of a unit's pages against the flat arrays.
var pageCheck func(event string, unit int, s *unitStore, img *unitImage)

// BlockState is the plain-data state of one resident workgroup; the live
// block and its snapshot copy both hold it.
type BlockState struct {
	// ID is the linear workgroup id in the grid, X/Y its coordinates.
	ID, X, Y int
	Slot     int
	// The block's register window [RegBase, RegBase+RegCount) and local
	// memory window [LocalBase, LocalBase+LocalCount) within the unit.
	RegBase, RegCount     int
	LocalBase, LocalCount int

	live       int // waves not yet done
	arrived    int // waves waiting at the barrier
	allocCycle int64
}

// Block is a resident workgroup.
type Block[W any] struct {
	BlockState
	waves []*Wave[W]
}

// WaveCore is the scalar part of a wave's state.
type WaveCore struct {
	Idx int // wave index within the block
	PC  int
	// Done is set once the wave has retired (see Device.FinishWave).
	Done bool
	// ThreadBase is the linear work-item id of lane 0 within the block;
	// RegBase the physical base of the wave's register window
	// [RegBase, RegBase+WarpWidth*RegsPerThread) within the unit.
	ThreadBase int
	RegBase    int

	atBarrier bool
	wakeAt    int64 // earliest cycle worth re-examining this wave
}

// WaveState is everything one wave owns: the live wave and its snapshot
// copy hold the same struct, so capture is a deep copy (copyWave) and
// restore is the same copy back into recycled storage.
type WaveState[W any] struct {
	WaveCore
	// RegReady is the scoreboard: per architectural vector register, the
	// cycle at which its last write becomes visible.
	RegReady []int64
	// ISA is the plug-in's architectural state (masks, predicates, scalar
	// registers and their scoreboards).
	ISA W
}

// Wave is a resident warp / wavefront.
type Wave[W any] struct {
	Blk *Block[W]
	WaveState[W]
}

// takeBlock returns a recycled block or a fresh one. The caller must
// initialize every field; recycled wave objects keep their slice
// capacity but carry stale values.
func (u *Unit[W]) takeBlock() *Block[W] {
	if n := len(u.free); n > 0 {
		blk := u.free[n-1]
		u.free[n-1] = nil
		u.free = u.free[:n-1]
		return blk
	}
	return &Block[W]{}
}

// resetSlots moves every resident block to the freelist, resizes the
// emptied slot table to n slots reusing its capacity, and clears the
// scheduler pointers.
func (u *Unit[W]) resetSlots(n int) {
	for slot, blk := range u.blocks {
		if blk != nil {
			u.free = append(u.free, blk)
			u.blocks[slot] = nil
		}
	}
	if cap(u.blocks) >= n {
		u.blocks = u.blocks[:n] // entries beyond the length are always nil
	} else {
		u.blocks = make([]*Block[W], n)
	}
	u.rr = 0
	u.greedy = nil
	u.liveWave = 0
	u.order = u.order[:0]
}

// sizeWaves resizes blk.waves to n, keeping recycled wave objects within
// the retained capacity and allocating the missing ones. The caller must
// initialize every wave field.
func (blk *Block[W]) sizeWaves(n int) {
	if cap(blk.waves) >= n {
		blk.waves = blk.waves[:n]
	} else {
		old := blk.waves[:cap(blk.waves)]
		blk.waves = make([]*Wave[W], n)
		copy(blk.waves, old)
	}
	for i, w := range blk.waves {
		if w == nil {
			blk.waves[i] = &Wave[W]{}
		}
	}
}

// New creates a device for a chip of the plug-in's vendor.
func New[W any](chip *chips.Chip, isa ISA[W]) (*Device[W], error) {
	if err := chip.Validate(); err != nil {
		return nil, err
	}
	if chip.Vendor != isa.Vendor() {
		return nil, fmt.Errorf("%s: chip %s is not an %s configuration", isa.Name(), chip.Name, isa.Vendor())
	}
	d := &Device[W]{
		Chip:     chip,
		isa:      isa,
		mem:      gpu.NewMemory(chip.GlobalMemBytes),
		watchdog: defaultWatchdog,
	}
	d.units = make([]*Unit[W], chip.Units)
	words, bytes := new(gpu.PageArena[uint32]), new(gpu.PageArena[byte])
	for i := range d.units {
		u := &Unit[W]{ID: i, unitStore: unitStore{
			regPages:   gpu.NewPages(chip.RegsPerUnit, words),
			localPages: gpu.NewPages(chip.LocalBytesPerUnit, bytes),
		}}
		u.Regs, u.Local = u.regPages.Data(), u.localPages.Data()
		d.units[i] = u
	}
	return d, nil
}

// Name implements gpu.Device.
func (d *Device[W]) Name() string { return d.Chip.Name }

// Vendor implements gpu.Device.
func (d *Device[W]) Vendor() gpu.Vendor { return d.Chip.Vendor }

// Mem implements gpu.Device.
func (d *Device[W]) Mem() *gpu.Memory { return d.mem }

// Stats implements gpu.Device.
func (d *Device[W]) Stats() gpu.RunStats { return d.stats }

// Units implements gpu.Device.
func (d *Device[W]) Units() int { return d.Chip.Units }

// RestorePageStats implements gpu.RestoreCoster: cumulative COW page
// copy/skip counts from snapshot restores into this device's memory,
// register files and local memories.
func (d *Device[W]) RestorePageStats() (copied, shared int64) {
	copied, shared = d.mem.RestorePageStats()
	for _, u := range d.units {
		c, s := u.restoreStats()
		copied, shared = copied+c, shared+s
	}
	return copied, shared
}

// StructSize implements gpu.Device.
func (d *Device[W]) StructSize(st gpu.Structure) int { return d.Chip.StructSize(st) }

// StructBits implements gpu.Device.
func (d *Device[W]) StructBits(st gpu.Structure) int64 { return d.Chip.StructBits(st) }

// ClockGHz implements gpu.Device.
func (d *Device[W]) ClockGHz() float64 { return d.Chip.ClockGHz }

// InjectFault implements gpu.Device.
func (d *Device[W]) InjectFault(f *gpu.Fault) {
	d.fault = f
	d.faultApplied = false
}

// SetTracer implements gpu.Device.
func (d *Device[W]) SetTracer(t gpu.Tracer) { d.Tracer = t }

// SetWatchdog implements gpu.Device.
func (d *Device[W]) SetWatchdog(maxCycles int64) {
	if maxCycles <= 0 {
		d.watchdog = defaultWatchdog
		return
	}
	d.watchdog = maxCycles
}

// Reset implements gpu.Device.
func (d *Device[W]) Reset() {
	d.mem.Reset()
	for _, u := range d.units {
		u.zero()
		u.resetSlots(0)
	}
	d.stats = gpu.RunStats{}
	d.Cycle = 0
	d.fault = nil
	d.faultApplied = false
	d.Tracer = nil
	d.watchdog = defaultWatchdog
	d.ckptFn = nil
	d.ckptNext = 0
	d.resume = nil
}

// Launch implements gpu.Device: it synchronously executes one kernel
// launch, advancing the device cycle counter. Under an armed
// fast-forward (see Restore) launches the snapshot already completed
// return immediately and the interrupted launch resumes mid-loop.
func (d *Device[W]) Launch(spec gpu.LaunchSpec) error {
	params, err := d.isa.Bind(spec.Kernel)
	if err != nil {
		return err
	}
	r := d.resume
	if r != nil {
		if r.skip > 0 {
			r.skip--
			return nil
		}
		// This is the launch the snapshot interrupted (or, for a
		// between-launch snapshot, the first launch after it): leave
		// replay mode and continue from the restored state.
		d.resume = nil
		d.mem.EndReplay()
	}
	lc, slots, err := d.prepare(spec, params)
	if err != nil {
		return err
	}
	if r != nil && r.inflight != nil {
		in := r.inflight
		if err := d.checkResident(lc, slots, in); err != nil {
			return err
		}
		return d.launchLoop(lc, in.nextBlock, in.retired, in.launchStart)
	}
	// Initialize slot tables for this launch, recycling any residue from
	// an aborted previous launch and reusing table capacity.
	for _, u := range d.units {
		u.resetSlots(slots)
	}
	return d.launchLoop(lc, 0, 0, d.Cycle)
}

// launchLoop runs the launch's dispatch/issue/retire loop from the given
// progress point. Its top is the deterministic boundary where checkpoint
// snapshots are captured and where restored launches re-enter, so the
// continuation of a restored run is bit-identical to the original.
func (d *Device[W]) launchLoop(lc *LaunchCtx, nextBlock, retired int, launchStart int64) error {
	period := int64(d.Chip.IssuePeriod)
	total := lc.Grid.Count()

	for retired < total {
		if d.Cycle-launchStart > d.watchdog {
			return gpu.ErrWatchdog
		}
		if d.ckptFn != nil && d.Cycle >= d.ckptNext {
			snap := d.capture(&inflightState{nextBlock: nextBlock, retired: retired, launchStart: launchStart})
			if next := d.ckptFn(snap); next > d.Cycle {
				d.ckptNext = next
			} else {
				d.ckptFn = nil
			}
		}
		d.applyFault()

		// Dispatch pending blocks to free slots.
		for _, u := range d.units {
			if nextBlock >= total {
				break
			}
			for slot := 0; slot < len(u.blocks) && nextBlock < total; slot++ {
				if u.blocks[slot] != nil {
					continue
				}
				d.dispatch(u, slot, nextBlock, lc)
				nextBlock++
			}
		}

		// Issue up to IssueWidth ready waves per unit.
		progress := false
		nextWake := never
		for _, u := range d.units {
			if u.liveWave == 0 {
				continue
			}
			issued, wake, err := d.issue(u, lc)
			if err != nil {
				return err
			}
			if issued > 0 {
				progress = true
			}
			if wake < nextWake {
				nextWake = wake
			}
			// Retire completed blocks, freeing their slots.
			for slot, blk := range u.blocks {
				if blk != nil && blk.live == 0 {
					d.retire(u, slot, blk)
					retired++
					progress = true
				}
			}
		}

		if retired >= total {
			break
		}
		// Advance time: step by the issue period when making progress,
		// otherwise jump straight to the next scoreboard wake-up.
		if progress || nextWake <= d.Cycle {
			d.Cycle += period
		} else if nextWake < never {
			d.Cycle = nextWake
		} else {
			// No wave can ever become ready: all remaining waves wait at
			// a barrier that cannot be satisfied.
			return fmt.Errorf("%s: deadlock at cycle %d (barrier starvation)", d.isa.Name(), d.Cycle)
		}
	}
	d.stats.Cycles = d.Cycle
	d.stats.Launches++
	return nil
}

// prepare validates the launch and computes residency: the launch
// context and the number of workgroup slots per unit.
func (d *Device[W]) prepare(spec gpu.LaunchSpec, params int) (*LaunchCtx, int, error) {
	c, k, name := d.Chip, spec.Kernel, d.isa.Name()
	threads := spec.Group.Count() // Dim3.Count is never below 1
	if len(spec.Args) < params {
		return nil, 0, fmt.Errorf("%s: kernel %s reads %d parameter words, launch provides %d",
			name, k.KernelName(), params, len(spec.Args))
	}
	lc := &LaunchCtx{
		Args: spec.Args, Grid: spec.Grid, Group: spec.Group,
		Threads:       threads,
		WavesPerBlock: (threads + c.WarpWidth - 1) / c.WarpWidth,
		RegsPerThread: k.VectorRegsPerThread(),
	}
	lc.regsPerBlock = lc.WavesPerBlock * c.WarpWidth * lc.RegsPerThread
	lc.localPerBlock = k.LocalBytesPerGroup()

	limit := c.MaxGroupsPerUnit
	if byWaves := c.MaxWarpsPerUnit / lc.WavesPerBlock; byWaves < limit {
		limit = byWaves
	}
	if lc.regsPerBlock > 0 {
		if byRegs := c.RegsPerUnit / lc.regsPerBlock; byRegs < limit {
			limit = byRegs
		}
	}
	if lc.localPerBlock > 0 {
		if byLocal := c.LocalBytesPerUnit / lc.localPerBlock; byLocal < limit {
			limit = byLocal
		}
	}
	if limit <= 0 {
		return nil, 0, fmt.Errorf("%s: kernel %s (%d regs/thread, %d local bytes, %d threads) does not fit on %s",
			name, k.KernelName(), lc.RegsPerThread, lc.localPerBlock, threads, c.Name)
	}
	return lc, limit, nil
}

// dispatch places grid block blockID into the given unit slot.
func (d *Device[W]) dispatch(u *Unit[W], slot, blockID int, lc *LaunchCtx) {
	gx := lc.Grid.X
	if gx <= 0 {
		gx = 1
	}
	blk := u.takeBlock()
	blk.BlockState = BlockState{
		ID: blockID, X: blockID % gx, Y: blockID / gx, Slot: slot,
		RegBase: slot * lc.regsPerBlock, RegCount: lc.regsPerBlock,
		LocalBase: slot * lc.localPerBlock, LocalCount: lc.localPerBlock,
		live: lc.WavesPerBlock, allocCycle: d.Cycle,
	}
	u.written(&blk.BlockState)
	// The allocation is reported before InitWave runs: an ISA may preload
	// registers there (amdsim writes the work-item id into v0/v1), and a
	// traced write must land inside its allocation bracket.
	if t := d.Tracer; t != nil {
		if blk.RegCount > 0 {
			t.RegAlloc(u.ID, blk.RegBase, blk.RegCount, d.Cycle)
		}
		if blk.LocalCount > 0 {
			t.LocalAlloc(u.ID, blk.LocalBase, blk.LocalCount, d.Cycle)
		}
	}
	ww := d.Chip.WarpWidth
	blk.sizeWaves(lc.WavesPerBlock)
	for i, w := range blk.waves {
		w.Blk = blk
		w.WaveCore = WaveCore{
			Idx: i, ThreadBase: i * ww,
			RegBase: blk.RegBase + i*ww*lc.RegsPerThread,
		}
		if cap(w.RegReady) >= lc.RegsPerThread {
			w.RegReady = w.RegReady[:lc.RegsPerThread]
			clear(w.RegReady)
		} else {
			w.RegReady = make([]int64, lc.RegsPerThread)
		}
		d.isa.InitWave(d, u, w, lc)
	}
	u.blocks[slot] = blk
	u.liveWave += lc.WavesPerBlock
}

// retire frees a completed block's resources and accounts occupancy.
func (d *Device[W]) retire(u *Unit[W], slot int, blk *Block[W]) {
	dur := float64(d.Cycle - blk.allocCycle)
	d.stats.RegOcc.AllocUnitCycles += float64(blk.RegCount) * dur
	d.stats.LocalOcc.AllocUnitCycles += float64(blk.LocalCount) * dur
	if t := d.Tracer; t != nil {
		if blk.RegCount > 0 {
			t.RegFree(u.ID, blk.RegBase, blk.RegCount, d.Cycle)
		}
		if blk.LocalCount > 0 {
			t.LocalFree(u.ID, blk.LocalBase, blk.LocalCount, d.Cycle)
		}
	}
	u.blocks[slot] = nil
	// A greedy pointer into the retired block is dead weight (every
	// consumer skips done waves); drop it so the recycled wave objects
	// can't be mistaken for the GTO head after reuse.
	if u.greedy != nil && u.greedy.Blk == blk {
		u.greedy = nil
	}
	u.free = append(u.free, blk)
}

// applyFault flips the armed bit once the device cycle reaches its time.
func (d *Device[W]) applyFault() {
	f := d.fault
	if f == nil || d.faultApplied || d.Cycle < f.Cycle {
		return
	}
	d.faultApplied = true
	if f.Unit < 0 || f.Unit >= len(d.units) {
		return
	}
	u := d.units[f.Unit]
	switch f.Structure {
	case gpu.RegisterFile:
		if f.Entry >= 0 && f.Entry < len(u.Regs) {
			u.Regs[f.Entry] ^= f.Mask(32)
			u.regPages.Dirty(f.Entry, 1)
		}
	case gpu.LocalMemory:
		if f.Entry >= 0 && f.Entry < len(u.Local) {
			u.Local[f.Entry] ^= byte(f.Mask(8))
			u.localPages.Dirty(f.Entry, 1)
		}
	}
}

// issue attempts to issue up to IssueWidth ready waves on one unit. It
// returns the number issued and the earliest wake-up cycle among
// time-blocked waves (never when there is none).
func (d *Device[W]) issue(u *Unit[W], lc *LaunchCtx) (int, int64, error) {
	issued := 0
	nextWake := never
	// Snapshot the resident waves in dispatch order into the unit's
	// persistent scratch slice.
	order := u.order[:0]
	for _, blk := range u.blocks {
		if blk == nil {
			continue
		}
		for _, w := range blk.waves {
			if !w.Done {
				order = append(order, w)
			}
		}
	}
	u.order = order
	n := len(order)
	if n == 0 {
		return 0, nextWake, nil
	}
	// Greedy-then-oldest: the most recently issued wave gets first claim
	// on the slot; the fallback scan below is oldest-first because the
	// order slice follows block dispatch order.
	gto := d.Chip.Scheduler == chips.SchedGTO
	start := 0
	if gto {
		if g := u.greedy; g != nil && !g.Done && !g.atBarrier {
			if g.wakeAt > d.Cycle {
				// The scan below skips the greedy wave, so its wake-up
				// is folded in here: dropping it let the launch loop
				// jump past it or, with nothing else pending, report a
				// deadlock that was not one.
				nextWake = g.wakeAt
			} else {
				ok, wake, err := d.isa.TryIssue(d, u, g, lc)
				if err != nil {
					return issued, nextWake, err
				}
				if ok {
					issued++
				} else if wake > d.Cycle {
					g.wakeAt = wake
					nextWake = wake
				}
			}
		}
	} else {
		start = u.rr % n
	}
	for k := 0; k < n && issued < d.Chip.IssueWidth; k++ {
		w := order[(start+k)%n]
		if w.Done || w.atBarrier || (gto && w == u.greedy) {
			continue
		}
		if w.wakeAt > d.Cycle {
			if w.wakeAt < nextWake {
				nextWake = w.wakeAt
			}
			continue
		}
		ok, wake, err := d.isa.TryIssue(d, u, w, lc)
		if err != nil {
			return issued, nextWake, err
		}
		if ok {
			issued++
			u.rr = (start + k + 1) % n
			u.greedy = w
		} else if wake > d.Cycle {
			w.wakeAt = wake
			if wake < nextWake {
				nextWake = wake
			}
		}
	}
	return issued, nextWake, nil
}

var _ interface {
	gpu.Device
	gpu.SnapshotCodec
	gpu.RestoreCoster
} = (*Device[struct{}])(nil)
