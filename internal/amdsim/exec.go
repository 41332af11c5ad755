package amdsim

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/chips"
	"repro/internal/siasm"
	"repro/internal/simt"
)

// latency returns the completion latency for an opcode class.
func latency(c *chips.Chip, cl siasm.Class) int64 {
	switch cl {
	case siasm.ClassSFU:
		return int64(c.SFULat)
	case siasm.ClassLDS:
		return int64(c.LocalLat)
	case siasm.ClassGlobal:
		return int64(c.GlobalLat)
	default:
		return int64(c.ALULat)
	}
}

// aluOf is SI's lane semantics, scalar and vector: the simt operation of
// every opcode that computes a register from its sources, ALUNone for the
// rest. execVALU puts the operands of the *rev shifts, v_cndmask_b32 and
// v_mac_f32 in simt's order.
var aluOf = [...]simt.ALUOp{
	siasm.OpSMov32: simt.ALUMov, siasm.OpSAdd: simt.ALUAdd, siasm.OpSSub: simt.ALUSub,
	siasm.OpSMul: simt.ALUMul, siasm.OpSAnd32: simt.ALUAnd, siasm.OpSOr32: simt.ALUOr,
	siasm.OpSXor32: simt.ALUXor, siasm.OpSLshl: simt.ALUShl, siasm.OpSLshr: simt.ALUShr,
	siasm.OpSMin: simt.ALUMin, siasm.OpSMax: simt.ALUMax,

	siasm.OpVMov: simt.ALUMov, siasm.OpVAddI: simt.ALUAdd, siasm.OpVSubI: simt.ALUSub,
	siasm.OpVMulI: simt.ALUMul, siasm.OpVMinI: simt.ALUMin, siasm.OpVMaxI: simt.ALUMax,
	siasm.OpVAnd: simt.ALUAnd, siasm.OpVOr: simt.ALUOr, siasm.OpVXor: simt.ALUXor,
	siasm.OpVLshlrev: simt.ALUShl, siasm.OpVLshrrev: simt.ALUShr,
	siasm.OpVAddF: simt.ALUFAdd, siasm.OpVSubF: simt.ALUFSub, siasm.OpVMulF: simt.ALUFMul,
	siasm.OpVMacF: simt.ALUFFma, siasm.OpVMinF: simt.ALUFMin, siasm.OpVMaxF: simt.ALUFMax,
	siasm.OpVRcpF: simt.ALURcp, siasm.OpVSqrtF: simt.ALUSqrt, siasm.OpVExpF: simt.ALUExp2,
	siasm.OpVLogF: simt.ALULog2, siasm.OpVCvtFI: simt.ALUI2F, siasm.OpVCvtIF: simt.ALUF2I,
	siasm.OpVCndmask: simt.ALUSel,
}

// opReady returns the scoreboard time of one operand.
func opReady(w *wave, o siasm.Operand) int64 {
	s := &w.ISA
	switch o.Kind {
	case siasm.OperandVReg:
		if int(o.Reg) < len(w.RegReady) {
			return w.RegReady[o.Reg]
		}
	case siasm.OperandSReg:
		return s.sgprReady[o.Reg]
	case siasm.OperandSReg64:
		a := s.sgprReady[o.Reg]
		if int(o.Reg)+1 < len(s.sgprReady) && s.sgprReady[o.Reg+1] > a {
			a = s.sgprReady[o.Reg+1]
		}
		return a
	case siasm.OperandVCC:
		return s.vccReady
	case siasm.OperandEXEC:
		return s.execReady
	}
	return 0
}

// depReady returns the cycle at which all dependencies are available.
func depReady(w *wave, in *siasm.Instr) int64 {
	s := &w.ISA
	t := opReady(w, in.Dst)
	for _, o := range in.Src {
		if r := opReady(w, o); r > t {
			t = r
		}
	}
	switch siasm.OpClass(in.Op) {
	case siasm.ClassVector, siasm.ClassSFU, siasm.ClassLDS, siasm.ClassGlobal:
		if in.Op != siasm.OpSLoadDW && s.execReady > t {
			t = s.execReady
		}
	}
	switch in.Op {
	case siasm.OpVCndmask:
		if s.vccReady > t {
			t = s.vccReady
		}
	case siasm.OpSCBranch:
		switch in.BrCond {
		case siasm.BrSCC0, siasm.BrSCC1:
			if s.sccReady > t {
				t = s.sccReady
			}
		case siasm.BrVCCZ, siasm.BrVCCNZ:
			if s.vccReady > t {
				t = s.vccReady
			}
		default:
			if s.execReady > t {
				t = s.execReady
			}
		}
	case siasm.OpSAndSaveexec, siasm.OpSOrSaveexec:
		if s.execReady > t {
			t = s.execReady
		}
	}
	return t
}

// vgprIndex maps (wavefront, lane, architectural VGPR) to the physical
// entry within the CU's VGPR file (register-major layout).
func vgprIndex(d *Device, w *wave, lane int, r uint8) int {
	return w.RegBase + int(r)*d.Chip.WarpWidth + lane
}

func readVGPR(d *Device, u *unit, w *wave, lane int, r uint8) uint32 {
	idx := vgprIndex(d, w, lane, r)
	if t := d.Tracer; t != nil {
		t.RegAccess(u.ID, idx, d.Cycle, false)
	}
	return u.Regs[idx]
}

func writeVGPR(d *Device, u *unit, w *wave, lane int, r uint8, v uint32) {
	idx := vgprIndex(d, w, lane, r)
	if t := d.Tracer; t != nil {
		t.RegAccess(u.ID, idx, d.Cycle, true)
	}
	u.Regs[idx] = v
}

// readOp32 evaluates a 32-bit source for one lane.
func readOp32(d *Device, u *unit, w *wave, lane int, o siasm.Operand) (uint32, error) {
	switch o.Kind {
	case siasm.OperandVReg:
		return readVGPR(d, u, w, lane, o.Reg), nil
	case siasm.OperandSReg:
		return w.ISA.sgprs[o.Reg], nil
	case siasm.OperandImm:
		return o.Imm, nil
	default:
		return 0, fmt.Errorf("amdsim: operand %s is not a 32-bit source", o)
	}
}

// read64 evaluates a 64-bit scalar source.
func (w *wavefront) read64(o siasm.Operand) (uint64, error) {
	switch o.Kind {
	case siasm.OperandSReg64:
		return uint64(w.sgprs[o.Reg]) | uint64(w.sgprs[o.Reg+1])<<32, nil
	case siasm.OperandVCC:
		return w.vcc, nil
	case siasm.OperandEXEC:
		return w.exec, nil
	case siasm.OperandImm:
		return uint64(int64(int32(o.Imm))), nil
	default:
		return 0, fmt.Errorf("amdsim: operand %s is not a 64-bit scalar", o)
	}
}

// write64 stores to a 64-bit scalar destination; EXEC writes are masked
// to existing lanes.
func (w *wavefront) write64(o siasm.Operand, v uint64, ready int64) error {
	switch o.Kind {
	case siasm.OperandSReg64:
		w.sgprs[o.Reg] = uint32(v)
		w.sgprs[o.Reg+1] = uint32(v >> 32)
		w.sgprReady[o.Reg] = ready
		w.sgprReady[o.Reg+1] = ready
	case siasm.OperandVCC:
		w.vcc = v
		w.vccReady = ready
	case siasm.OperandEXEC:
		w.exec = v & w.valid
		w.execReady = ready
	default:
		return fmt.Errorf("amdsim: operand %s is not a 64-bit destination", o)
	}
	return nil
}

// TryIssue attempts to issue the wavefront's next instruction.
func (i *isa) TryIssue(d *Device, u *unit, w *wave, lc *simt.LaunchCtx) (bool, int64, error) {
	prog := i.prog
	if w.PC < 0 || w.PC >= len(prog.Instrs) {
		return false, 0, fmt.Errorf("amdsim: kernel %s: invalid PC %d (wave %d of group %d)",
			prog.Name, w.PC, w.Idx, w.Blk.ID)
	}
	in := &prog.Instrs[w.PC]
	if ready := depReady(w, in); ready > d.Cycle {
		return false, ready, nil
	}
	s := &w.ISA
	cls := siasm.OpClass(in.Op)
	lat := latency(d.Chip, cls)
	active := s.exec & s.valid
	ww := d.Chip.WarpWidth

	switch cls {
	case siasm.ClassVector, siasm.ClassSFU, siasm.ClassLDS, siasm.ClassGlobal:
		d.CountIssue(bits.OnesCount64(active))
	default:
		d.CountIssue(1)
	}

	switch in.Op {
	case siasm.OpSNop, siasm.OpSWaitcnt:
		w.PC++

	case siasm.OpSEndpgm:
		w.PC++
		d.FinishWave(u, w)

	case siasm.OpSBranch:
		w.PC = in.Target

	case siasm.OpSCBranch:
		taken := false
		switch in.BrCond {
		case siasm.BrSCC0:
			taken = !s.scc
		case siasm.BrSCC1:
			taken = s.scc
		case siasm.BrVCCZ:
			taken = s.vcc == 0
		case siasm.BrVCCNZ:
			taken = s.vcc != 0
		case siasm.BrEXECZ:
			taken = active == 0
		case siasm.BrEXECNZ:
			taken = active != 0
		}
		if taken {
			w.PC = in.Target
		} else {
			w.PC++
		}

	case siasm.OpSBarrier:
		w.PC++
		d.ArriveBarrier(w)

	case siasm.OpSCmp:
		a, err := readOp32(d, u, w, 0, in.Src[0])
		if err != nil {
			return false, 0, err
		}
		b, err := readOp32(d, u, w, 0, in.Src[1])
		if err != nil {
			return false, 0, err
		}
		s.scc = simt.Compare(simt.Cond(in.Cond), simt.CmpType(in.CmpTy), a, b)
		s.sccReady = d.Cycle + lat
		w.PC++

	case siasm.OpSLoadDW:
		s.sgprs[in.Dst.Reg] = lc.Args[in.KArg]
		s.sgprReady[in.Dst.Reg] = d.Cycle + lat
		w.PC++

	case siasm.OpSMov64, siasm.OpSNot64, siasm.OpSAnd64, siasm.OpSOr64,
		siasm.OpSXor64, siasm.OpSAndn264:
		if err := execScalar64(d, s, in, lat); err != nil {
			return false, 0, err
		}
		w.PC++

	case siasm.OpSAndSaveexec, siasm.OpSOrSaveexec:
		s0, err := s.read64(in.Src[0])
		if err != nil {
			return false, 0, err
		}
		old := s.exec
		if err := s.write64(in.Dst, old, d.Cycle+lat); err != nil {
			return false, 0, err
		}
		if in.Op == siasm.OpSAndSaveexec {
			s.exec = (old & s0) & s.valid
		} else {
			s.exec = (old | s0) & s.valid
		}
		s.execReady = d.Cycle + lat
		s.scc = s.exec != 0
		s.sccReady = d.Cycle + lat
		w.PC++

	case siasm.OpVCmp:
		var a, b [64]uint32
		if err := sources(d, u, w, in, active, &a, &b); err != nil {
			return false, 0, err
		}
		var mask uint64
		for lane := 0; lane < ww; lane++ {
			if active&(1<<lane) != 0 && simt.Compare(simt.Cond(in.Cond), simt.CmpType(in.CmpTy), a[lane], b[lane]) {
				mask |= 1 << lane
			}
		}
		s.vcc = mask
		s.vccReady = d.Cycle + lat
		w.PC++

	case siasm.OpDSRead, siasm.OpDSWrite:
		if err := execLDS(d, u, w, in, active, ww); err != nil {
			return false, 0, err
		}
		if in.Op == siasm.OpDSRead {
			w.RegReady[in.Dst.Reg] = d.Cycle + lat
		}
		w.PC++

	case siasm.OpBufLoad, siasm.OpBufStor:
		if err := execBuffer(d, u, w, in, active, ww); err != nil {
			return false, 0, err
		}
		if in.Op == siasm.OpBufLoad {
			w.RegReady[in.Dst.Reg] = d.Cycle + lat
		}
		w.PC++

	default: // scalar and vector ALU/SFU, v_cndmask_b32
		op := simt.ALUNone
		if uint(in.Op) < uint(len(aluOf)) {
			op = aluOf[in.Op]
		}
		if op == simt.ALUNone {
			return false, 0, fmt.Errorf("amdsim: kernel %s: opcode %d has no lane semantics (PC %d)", prog.Name, in.Op, w.PC)
		}
		if cls == siasm.ClassScalar {
			if err := execScalar32(d, u, w, in, op, lat); err != nil {
				return false, 0, err
			}
			w.PC++
			break
		}
		if err := execVALU(d, u, w, in, op, active); err != nil {
			return false, 0, err
		}
		w.RegReady[in.Dst.Reg] = d.Cycle + lat
		w.PC++
	}

	if w.PC >= len(prog.Instrs) && !w.Done {
		return false, 0, fmt.Errorf("amdsim: kernel %s: control flow fell off program end", prog.Name)
	}
	return true, 0, nil
}

// execScalar32 executes a 32-bit scalar ALU instruction once for the
// wavefront.
func execScalar32(d *Device, u *unit, w *wave, in *siasm.Instr, op simt.ALUOp, lat int64) error {
	s := &w.ISA
	a, err := readOp32(d, u, w, 0, in.Src[0])
	if err != nil {
		return err
	}
	var b uint32
	if in.Src[1].Kind != siasm.OperandNone {
		b, err = readOp32(d, u, w, 0, in.Src[1])
		if err != nil {
			return err
		}
	}
	if in.Dst.Kind != siasm.OperandSReg {
		return fmt.Errorf("amdsim: scalar destination %s is not an SGPR", in.Dst)
	}
	s.sgprs[in.Dst.Reg] = simt.ALU(op, a, b, 0)
	s.sgprReady[in.Dst.Reg] = d.Cycle + lat
	return nil
}

func execScalar64(d *Device, s *wavefront, in *siasm.Instr, lat int64) error {
	s0, err := s.read64(in.Src[0])
	if err != nil {
		return err
	}
	var s1 uint64
	if in.Src[1].Kind != siasm.OperandNone {
		s1, err = s.read64(in.Src[1])
		if err != nil {
			return err
		}
	}
	var v uint64
	switch in.Op {
	case siasm.OpSMov64:
		v = s0
	case siasm.OpSNot64:
		v = ^s0
	case siasm.OpSAnd64:
		v = s0 & s1
	case siasm.OpSOr64:
		v = s0 | s1
	case siasm.OpSXor64:
		v = s0 ^ s1
	case siasm.OpSAndn264:
		v = s0 &^ s1
	}
	return s.write64(in.Dst, v, d.Cycle+lat)
}

// execVALU computes op on every lane in active and writes the destination
// VGPR. The sources are gathered first, one operand at a time: a lane
// reads its sources before it writes, as it would one lane at a time,
// and lanes share no registers.
func execVALU(d *Device, u *unit, w *wave, in *siasm.Instr, op simt.ALUOp, active uint64) error {
	var a, b, c [64]uint32
	if err := sources(d, u, w, in, active, &a, &b); err != nil {
		return err
	}
	pa, pb := &a, &b
	switch in.Op {
	case siasm.OpVLshlrev, siasm.OpVLshrrev: // D = S1 << S0
		pa, pb = pb, pa
	case siasm.OpVCndmask: // D = VCC ? S1 : S0
		pa, pb = pb, pa
		for lane := range c {
			c[lane] = uint32(w.ISA.vcc>>lane) & 1
		}
	case siasm.OpVMacF: // D += S0 * S1
		if err := gather(d, u, w, active, in.Dst, &c); err != nil {
			return err
		}
	}
	for lane := 0; lane < d.Chip.WarpWidth; lane++ {
		if active&(1<<lane) != 0 {
			writeVGPR(d, u, w, lane, in.Dst.Reg, simt.ALU(op, pa[lane], pb[lane], c[lane]))
		}
	}
	return nil
}

// sources gathers in's 32-bit sources on every lane in active; b stays
// zero without a second source, and no lane reads anything when none is
// active.
func sources(d *Device, u *unit, w *wave, in *siasm.Instr, active uint64, a, b *[64]uint32) error {
	if active == 0 {
		return nil
	}
	if err := gather(d, u, w, active, in.Src[0], a); err != nil {
		return err
	}
	if in.Src[1].Kind == siasm.OperandNone {
		return nil
	}
	return gather(d, u, w, active, in.Src[1], b)
}

// gather reads a 32-bit source on every lane in active into v.
func gather(d *Device, u *unit, w *wave, active uint64, o siasm.Operand, v *[64]uint32) error {
	if o.Kind != siasm.OperandVReg {
		x, err := readOp32(d, u, w, 0, o)
		for lane := range v {
			v[lane] = x
		}
		return err
	}
	idx, t := vgprIndex(d, w, 0, o.Reg), d.Tracer
	for lane := 0; lane < d.Chip.WarpWidth; lane, idx = lane+1, idx+1 {
		if active&(1<<lane) == 0 {
			continue
		}
		if t != nil {
			t.RegAccess(u.ID, idx, d.Cycle, false)
		}
		v[lane] = u.Regs[idx]
	}
	return nil
}

func execLDS(d *Device, u *unit, w *wave, in *siasm.Instr, active uint64, ww int) error {
	g := w.Blk
	for lane := 0; lane < ww; lane++ {
		if active&(1<<lane) == 0 {
			continue
		}
		addrOp := in.Src[0]
		dataOp := in.Src[1]
		addr, err := readOp32(d, u, w, lane, addrOp)
		if err != nil {
			return err
		}
		addr += uint32(in.MemOff)
		if addr%4 != 0 {
			return fmt.Errorf("amdsim: kernel LDS access misaligned %#x (PC %d)", addr, w.PC)
		}
		if int(addr)+4 > g.LocalCount {
			return fmt.Errorf("amdsim: LDS access %#x beyond group allocation %d (PC %d)", addr, g.LocalCount, w.PC)
		}
		phys := g.LocalBase + int(addr)
		if in.Op == siasm.OpDSRead {
			if t := d.Tracer; t != nil {
				t.LocalAccess(u.ID, phys, 4, d.Cycle, false)
			}
			v := binary.LittleEndian.Uint32(u.Local[phys:])
			writeVGPR(d, u, w, lane, in.Dst.Reg, v)
		} else {
			v, err := readOp32(d, u, w, lane, dataOp)
			if err != nil {
				return err
			}
			if t := d.Tracer; t != nil {
				t.LocalAccess(u.ID, phys, 4, d.Cycle, true)
			}
			binary.LittleEndian.PutUint32(u.Local[phys:], v)
		}
	}
	return nil
}

func execBuffer(d *Device, u *unit, w *wave, in *siasm.Instr, active uint64, ww int) error {
	mem := d.Mem()
	for lane := 0; lane < ww; lane++ {
		if active&(1<<lane) == 0 {
			continue
		}
		if in.Op == siasm.OpBufLoad {
			addr, err := readOp32(d, u, w, lane, in.Src[0])
			if err != nil {
				return err
			}
			addr += uint32(in.MemOff)
			if addr%4 != 0 {
				return fmt.Errorf("amdsim: misaligned global access %#x (PC %d)", addr, w.PC)
			}
			v, err := mem.Load32(addr)
			if err != nil {
				return fmt.Errorf("amdsim: PC %d: %w", w.PC, err)
			}
			writeVGPR(d, u, w, lane, in.Dst.Reg, v)
		} else {
			// buffer_store_dword vsrc, vaddr.
			v, err := readOp32(d, u, w, lane, in.Src[0])
			if err != nil {
				return err
			}
			addr, err := readOp32(d, u, w, lane, in.Src[1])
			if err != nil {
				return err
			}
			addr += uint32(in.MemOff)
			if addr%4 != 0 {
				return fmt.Errorf("amdsim: misaligned global access %#x (PC %d)", addr, w.PC)
			}
			if err := mem.Store32(addr, v); err != nil {
				return fmt.Errorf("amdsim: PC %d: %w", w.PC, err)
			}
		}
	}
	return nil
}
