package simt

import (
	"encoding/binary"
	"fmt"
)

// The lane accessors are the only per-lane path to a unit's storage and
// to device memory: an ISA decodes its operands and names each register's
// first entry, and these touch the arrays, trace and check every access.
// Lane l of a vector is bit l of the lane mask; a lane outside it is
// neither touched nor traced. Each loop reads its storage slice into a
// local, or it reloads the slice header on every lane, and masks the lane
// shift to 63, or it pays Go's fix-up for a shift of 64 or more.
//
// Both ISAs keep a vector register's lanes contiguous (an AMD VGPR, an
// NVIDIA warp register): lane l of an operand is entry base + l. So an
// operand whose mask holds every lane of its vector is one copy: most do
// (76 % of the AMD and 88 % of the NVIDIA operands of the paper grid's
// golden runs, all but 0.1 % of a matrixMul campaign's). Any other
// operand (a partial mask, a scalar read of one lane) takes the masked
// loop.

// ReadRegs reads register-file entry w.RegBase + off + l of w's unit into
// v[l] for every lane l in lanes, after one tracer event for them all.
func (d *Device[W]) ReadRegs(w *Wave[W], off int, lanes uint64, v []uint32) {
	u := w.Blk.unit
	idx := w.RegBase + off
	if t := d.tracer; t != nil {
		t.RegAccess(u.ID, idx, lanes, d.Cycle, false)
	}
	regs := u.regFile
	if allLanes(lanes, len(v)) {
		copy(v, regs[idx:idx+len(v)])
		return
	}
	for l := range v {
		if lanes>>(uint(l)&63)&1 != 0 {
			v[l] = regs[idx+l]
		}
	}
}

// WriteRegs writes v[l] into the entries ReadRegs reads.
func (d *Device[W]) WriteRegs(w *Wave[W], off int, lanes uint64, v []uint32) {
	u := w.Blk.unit
	idx := w.RegBase + off
	if t := d.tracer; t != nil {
		t.RegAccess(u.ID, idx, lanes, d.Cycle, true)
	}
	regs := u.regFile
	if allLanes(lanes, len(v)) {
		copy(regs[idx:idx+len(v)], v)
		return
	}
	for l := range v {
		if lanes>>(uint(l)&63)&1 != 0 {
			// A store's index is a local defined from RegBase and never
			// reassigned (TestStoresStayInsideTheBlock).
			i := w.RegBase + off + l
			regs[i] = v[l]
		}
	}
}

// allLanes reports whether lanes holds every lane of an n-lane vector,
// n at most 64.
func allLanes(lanes uint64, n int) bool {
	all := ^uint64(0) >> (uint(64-n) & 63)
	return lanes&all == all
}

// AccessLocal loads into v[l], or with write stores v[l] at, the 32-bit
// little-endian word at byte addrs[l]+off of the local-memory window of
// w's block, for every lane l in lanes in lane order: check, trace, then
// access. The first lane whose address is misaligned or beyond the
// block's LocalCount stops it with an error, the lanes before it done.
func (d *Device[W]) AccessLocal(w *Wave[W], lanes uint64, addrs []uint32, off uint32, v []uint32, write bool) error {
	blk := w.Blk
	u := blk.unit
	local := u.localMem
	v = v[:len(addrs)]
	for l, a := range addrs {
		if lanes>>(uint(l)&63)&1 == 0 {
			continue
		}
		addr := a + off
		if addr%4 != 0 {
			return d.accessError(w, fmt.Errorf("misaligned local access %#x", addr))
		}
		if int(addr)+4 > blk.LocalCount {
			return d.accessError(w, fmt.Errorf("local access %#x beyond the block's %d bytes", addr, blk.LocalCount))
		}
		phys := blk.LocalBase + int(addr)
		if t := d.tracer; t != nil {
			t.LocalAccess(u.ID, phys, 4, d.Cycle, write)
		}
		if write {
			binary.LittleEndian.PutUint32(local[phys:], v[l])
		} else {
			v[l] = binary.LittleEndian.Uint32(local[phys:])
		}
	}
	return nil
}

// AccessGlobal is AccessLocal over device memory, untraced; gpu.Memory
// checks the bounds.
func (d *Device[W]) AccessGlobal(w *Wave[W], lanes uint64, addrs []uint32, off uint32, v []uint32, write bool) error {
	mem := d.mem
	v = v[:len(addrs)]
	for l, a := range addrs {
		if lanes>>(uint(l)&63)&1 == 0 {
			continue
		}
		addr := a + off
		if addr%4 != 0 {
			return d.accessError(w, fmt.Errorf("misaligned global access %#x", addr))
		}
		var err error
		if write {
			err = mem.Store32(addr, v[l])
		} else {
			v[l], err = mem.Load32(addr)
		}
		if err != nil {
			return d.accessError(w, err)
		}
	}
	return nil
}

// accessError is the one form of a failed lane access's error.
func (d *Device[W]) accessError(w *Wave[W], err error) error {
	return fmt.Errorf("%s: kernel %s PC %d: %w", d.isa.Name(), d.kernel, w.PC, err)
}
