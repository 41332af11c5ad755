// Package simt here holds stores that TestStoresStayInsideTheBlock must
// refuse: each index is defined from RegBase, then moved by something
// other than += of a parameter, so a register value can steer the store
// out of the block's window. The directory is parsed, never compiled.
package simt

// overwritten replaces the index with a register value before the store.
func (d *Device[W]) overwritten(w *Wave[W], off, stride int, lanes uint64, v []uint32) {
	idx := w.RegBase + off
	regs := w.Blk.unit.regFile
	idx = int(v[0])
	for l := range v {
		regs[idx] = v[l]
		idx += stride
	}
}

// steppedByData moves the index by a register value.
func (d *Device[W]) steppedByData(w *Wave[W], off, stride int, lanes uint64, v []uint32) {
	idx := w.RegBase + off
	regs := w.Blk.unit.regFile
	for l := range v {
		regs[idx] = v[l]
		idx += int(v[l])
	}
}

// redefined shadows the index with one from a register value.
func (d *Device[W]) redefined(w *Wave[W], off, stride int, lanes uint64, v []uint32) {
	idx := w.RegBase + off
	regs := w.Blk.unit.regFile
	if lanes != 0 {
		idx := int(v[0])
		regs[idx] = v[0]
	}
	regs[idx] = v[1]
}

// incremented steps the index by one, not by a parameter.
func (d *Device[W]) incremented(w *Wave[W], off, stride int, lanes uint64, v []uint32) {
	idx := w.RegBase + off
	regs := w.Blk.unit.regFile
	for l := range v {
		copy(regs[idx:idx+1], v[l:l+1])
		idx++
	}
}
