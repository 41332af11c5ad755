package simt

// RegFile returns the register file of w's unit, so the lane accessor
// tests can hold what ReadRegs and WriteRegs do against a per-lane
// reference over the whole array.
func RegFile[W any](w *Wave[W]) []uint32 { return w.Blk.unit.regFile }
