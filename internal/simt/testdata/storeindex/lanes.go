// Package simt here holds stores that TestStoresStayInsideTheBlock must
// refuse: each index is defined from RegBase, then reassigned, so a
// register value, or any step at all, can move the store out of the
// block's window. The directory is parsed, never compiled.
package simt

// overwritten replaces the index with a register value before the store.
func (d *Device[W]) overwritten(w *Wave[W], off int, lanes uint64, v []uint32) {
	idx := w.RegBase + off
	regs := w.Blk.unit.regFile
	idx = int(v[0])
	for l := range v {
		regs[idx] = v[l]
	}
}

// steppedByData moves the index by a register value.
func (d *Device[W]) steppedByData(w *Wave[W], off int, lanes uint64, v []uint32) {
	idx := w.RegBase + off
	regs := w.Blk.unit.regFile
	for l := range v {
		regs[idx] = v[l]
		idx += int(v[l])
	}
}

// steppedByParameter moves the index by a parameter: no accessor steps
// its index, so none may.
func (d *Device[W]) steppedByParameter(w *Wave[W], off int, lanes uint64, v []uint32) {
	idx := w.RegBase + off
	regs := w.Blk.unit.regFile
	for l := range v {
		regs[idx] = v[l]
		idx += off
	}
}

// redefined shadows the index with one from a register value.
func (d *Device[W]) redefined(w *Wave[W], off int, lanes uint64, v []uint32) {
	idx := w.RegBase + off
	regs := w.Blk.unit.regFile
	if lanes != 0 {
		idx := int(v[0])
		regs[idx] = v[0]
	}
	regs[idx] = v[1]
}

// incremented steps the index by one.
func (d *Device[W]) incremented(w *Wave[W], off int, lanes uint64, v []uint32) {
	idx := w.RegBase + off
	regs := w.Blk.unit.regFile
	for l := range v {
		copy(regs[idx:idx+1], v[l:l+1])
		idx++
	}
}
