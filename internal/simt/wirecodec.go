package simt

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/wire"
)

// Wire codec for snapshots (gpu.SnapshotCodec): the memory image travels
// separately; the meta blob encoded here carries everything else —
// execution statistics and the per-unit scheduler state. The layout is versioned only through the
// enclosing wire file version: a format change here requires a
// wire.Version bump.
//
// Layout: common header (cycle, stats, launch progress, size, unit
// count) → per unit (registers and local memory as flat arrays, whatever
// pages they are held in; slot occupancy, scheduler
// pointers, slot count) → per slot a presence flag and the BlockState
// fields → per wave: idx, pc, the ISA section (ISA.EncodeState), then the
// common tail atBarrier, done, wakeAt, threadBase, then the ISA trailer
// (ISA.EncodeTrailer). The trailer exists because amdsim's records, which
// predate the shared core, carry the wave's register base after the
// tail; nvsim's carry nothing there. Both layouts are byte-for-byte what
// the two simulators wrote when each had its own codec (pinned by
// testdata/*_meta.bin). No production path persists these blobs; those
// tests are the codec's only callers.

// MarshalSnapshot implements gpu.SnapshotCodec.
func (d *Device[W]) MarshalSnapshot(s gpu.Snapshot) (*gpu.MemImage, []byte, error) {
	snap, ok := s.(*snapshot[W])
	if !ok {
		return nil, nil, fmt.Errorf("%s: cannot marshal a %T snapshot", d.isa.Name(), s)
	}
	var w wire.Writer
	w.I64(snap.cycle)
	w.I64(snap.stats.Cycles)
	w.I64(snap.stats.Instructions)
	w.I64(snap.stats.LaneInstructions)
	w.Int(snap.stats.Launches)
	w.F64(snap.stats.RegOcc.AllocUnitCycles)
	w.F64(snap.stats.LocalOcc.AllocUnitCycles)
	w.Int(snap.launches)
	w.Bool(snap.inflight != nil)
	if in := snap.inflight; in != nil {
		w.Int(in.nextBlock)
		w.Int(in.retired)
		w.I64(in.launchStart)
	}
	// The size field is what a snapshot of flat arrays weighed; readers
	// ignore it (a decoded snapshot counts what it holds, see decode).
	size := snap.mem.SizeBytes()
	for i := range snap.units {
		size += int64(4*snap.regsPerUnit + snap.localPerUnit + len(snap.units[i].blocks))
	}
	w.I64(size)
	w.U32(uint32(len(snap.units)))
	var regs []uint32
	var local []byte
	for i := range snap.units {
		u := &snap.units[i]
		regs = gpu.Flatten(regs[:0], u.regs, snap.regsPerUnit)
		local = gpu.Flatten(local[:0], u.local, snap.localPerUnit)
		w.U32s(regs)
		w.Blob(local)
		// The slot occupancy table, in wire.Writer.Bools form; it is
		// redundant with the presence flags below but part of the layout.
		w.U32(uint32(len(u.blocks)))
		for _, blk := range u.blocks {
			w.Bool(blk != nil)
		}
		w.Int(u.rr)
		w.Int(u.greedySlot)
		w.Int(u.greedyWave)
		w.U32(uint32(len(u.blocks)))
		for _, blk := range u.blocks {
			w.Bool(blk != nil)
			if blk == nil {
				continue
			}
			w.Int(blk.ID)
			w.Int(blk.X)
			w.Int(blk.Y)
			w.Int(blk.Slot)
			w.Int(blk.RegBase)
			w.Int(blk.RegCount)
			w.Int(blk.LocalBase)
			w.Int(blk.LocalCount)
			w.Int(blk.live)
			w.Int(blk.arrived)
			w.I64(blk.allocCycle)
			w.U32(uint32(len(blk.waves)))
			for wi := range blk.waves {
				ws := &blk.waves[wi]
				w.Int(ws.Idx)
				w.Int(ws.PC)
				d.isa.EncodeState(&w, ws)
				w.Bool(ws.atBarrier)
				w.Bool(ws.Done)
				w.I64(ws.wakeAt)
				w.Int(ws.ThreadBase)
				d.isa.EncodeTrailer(&w, ws)
			}
		}
	}
	return snap.mem, w.Bytes(), nil
}

// UnmarshalSnapshot implements gpu.SnapshotCodec. The returned snapshot
// references mem directly (the restore path only copies out of images,
// never into them).
//
// A meta blob is treated as outside input: every
// allocation is bounded by the remaining input and every value the
// machine later indexes with is validated against the chip, so a snapshot
// that decodes restores without panicking. What depends on the launch —
// that the resident blocks are the interrupted kernel's — is checked on
// resume (checkResident).
func (d *Device[W]) UnmarshalSnapshot(mem *gpu.MemImage, meta []byte) (gpu.Snapshot, error) {
	snap, err := d.decode(mem, wire.NewReader(meta))
	if err != nil {
		return nil, fmt.Errorf("%s: snapshot meta: %w", d.isa.Name(), err)
	}
	return snap, nil
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", wire.ErrCorrupt, fmt.Sprintf(format, args...))
}

func (d *Device[W]) decode(mem *gpu.MemImage, r *wire.Reader) (*snapshot[W], error) {
	snap := &snapshot[W]{mem: mem, regsPerUnit: d.Chip.RegsPerUnit, localPerUnit: d.Chip.LocalBytesPerUnit}
	snap.cycle = r.I64()
	snap.stats.Cycles = r.I64()
	snap.stats.Instructions = r.I64()
	snap.stats.LaneInstructions = r.I64()
	snap.stats.Launches = r.Int()
	snap.stats.RegOcc.AllocUnitCycles = r.F64()
	snap.stats.LocalOcc.AllocUnitCycles = r.F64()
	snap.launches = r.Int()
	if r.Bool() {
		snap.inflight = &inflightState{
			nextBlock:   r.Int(),
			retired:     r.Int(),
			launchStart: r.I64(),
		}
	}
	r.I64() // the writer's size; account below counts what was decoded
	nu := int(r.U32())
	if r.Err() != nil {
		return nil, r.Err()
	}
	// The watchdog measures cycle-launchStart: a start outside [0, cycle]
	// would disarm it.
	if in := snap.inflight; in != nil && (in.launchStart < 0 || in.launchStart > snap.cycle) {
		return nil, corrupt("launch start %d outside [0, %d]", in.launchStart, snap.cycle)
	}
	if nu != len(d.units) {
		return nil, corrupt("%d units, chip %s has %d", nu, d.Chip.Name, len(d.units))
	}
	snap.units = make([]unitSnap[W], nu)
	for i := range snap.units {
		if err := d.decodeUnit(r, &snap.units[i]); err != nil {
			return nil, fmt.Errorf("unit %d: %w", i, err)
		}
	}
	snap.account()
	return snap, r.Done()
}

func (d *Device[W]) decodeUnit(r *wire.Reader, u *unitSnap[W]) error {
	regs, local := r.U32s(), r.Blob()
	occupied := r.Bools()
	u.rr = r.Int()
	u.greedySlot = r.Int()
	u.greedyWave = r.Int()
	nblk := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if len(regs) != d.Chip.RegsPerUnit || len(local) != d.Chip.LocalBytesPerUnit {
		return corrupt("%d registers and %d local bytes, chip %s has %d and %d",
			len(regs), len(local), d.Chip.Name, d.Chip.RegsPerUnit, d.Chip.LocalBytesPerUnit)
	}
	// Only the pages that are not all zero stay on the heap: an idle
	// unit's 320 KiB on the HD 7970 decode to the shared zero page.
	var nr, nl int
	u.regs, nr = gpu.CutPages(regs)
	u.local, nl = gpu.CutPages(local)
	u.owned = nr + nl
	// One presence byte per slot follows, which also bounds the table
	// allocation by the input size.
	if nblk != len(occupied) || nblk > r.Remaining() {
		return corrupt("slot table of %d entries, occupancy table of %d", nblk, len(occupied))
	}
	if u.rr < 0 {
		return corrupt("negative round-robin pointer %d", u.rr)
	}
	ww := d.Chip.WarpWidth
	u.blocks = make([]*blockSnap[W], nblk)
	for slot := range u.blocks {
		present := r.Bool()
		if r.Err() == nil && present != occupied[slot] {
			return corrupt("slot %d: occupancy flag disagrees with the block record", slot)
		}
		if !present {
			continue
		}
		blk := &blockSnap[W]{BlockState: BlockState{
			ID: r.Int(), X: r.Int(), Y: r.Int(), Slot: r.Int(),
			RegBase: r.Int(), RegCount: r.Int(),
			LocalBase: r.Int(), LocalCount: r.Int(),
			live: r.Int(), arrived: r.Int(), allocCycle: r.I64(),
		}}
		nw := int(r.U32())
		if r.Err() != nil {
			return r.Err()
		}
		if blk.Slot != slot ||
			blk.RegBase < 0 || blk.RegCount < 0 || blk.RegCount > len(regs)-blk.RegBase ||
			blk.LocalBase < 0 || blk.LocalCount < 0 || blk.LocalCount > len(local)-blk.LocalBase {
			return corrupt("slot %d: block windows outside the unit", slot)
		}
		if nw > r.Remaining() {
			return corrupt("slot %d: implausible wave count %d", slot, nw)
		}
		blk.waves = make([]WaveState[W], nw)
		live, arrived := 0, 0
		for wi := range blk.waves {
			ws := &blk.waves[wi]
			ws.Idx = r.Int()
			ws.PC = r.Int()
			if err := d.isa.DecodeState(r, ws); err != nil {
				return err
			}
			ws.atBarrier = r.Bool()
			ws.Done = r.Bool()
			ws.wakeAt = r.I64()
			ws.ThreadBase = r.Int()
			if r.Err() != nil {
				return r.Err()
			}
			// The wave's register window is derived, not stored: recompute
			// it and require it to lie inside the block's.
			perWave := ww * len(ws.RegReady)
			if ws.Idx != wi || ws.ThreadBase != wi*ww || (wi+1)*perWave > blk.RegCount {
				return corrupt("slot %d wave %d: index, thread base or register window out of place", slot, wi)
			}
			ws.RegBase = blk.RegBase + wi*perWave
			if err := d.isa.DecodeTrailer(r, ws); err != nil {
				return err
			}
			if !ws.Done {
				live++
				if ws.atBarrier {
					arrived++
				}
			}
		}
		if blk.live != live || blk.arrived != arrived {
			return corrupt("slot %d: live/arrived counts disagree with the wave records", slot)
		}
		u.blocks[slot] = blk
	}
	if g := u.greedySlot; g != -1 || u.greedyWave != -1 {
		if g < 0 || g >= nblk || u.blocks[g] == nil || u.greedyWave < 0 || u.greedyWave >= len(u.blocks[g].waves) {
			return corrupt("greedy wave %d/%d is not resident", g, u.greedyWave)
		}
	}
	return nil
}
