package nvsim

import (
	"fmt"
	"math/bits"

	"repro/internal/chips"
	"repro/internal/sass"
	"repro/internal/simt"
)

// latency returns the completion latency for an opcode class.
func latency(c *chips.Chip, cl sass.Class) int64 {
	switch cl {
	case sass.ClassSFU:
		return int64(c.SFULat)
	case sass.ClassLocalMem:
		return int64(c.LocalLat)
	case sass.ClassGlobalMem:
		return int64(c.GlobalLat)
	default:
		return int64(c.ALULat)
	}
}

// aluOf is SASS's lane semantics: the simt operation of every opcode that
// computes a register from its sources, ALUNone for the rest.
var aluOf = [...]simt.ALUOp{
	sass.OpMOV: simt.ALUMov, sass.OpIADD: simt.ALUAdd, sass.OpISUB: simt.ALUSub,
	sass.OpIMUL: simt.ALUMul, sass.OpIMIN: simt.ALUMin, sass.OpIMAX: simt.ALUMax,
	sass.OpAND: simt.ALUAnd, sass.OpOR: simt.ALUOr, sass.OpXOR: simt.ALUXor,
	sass.OpSHL: simt.ALUShl, sass.OpSHR: simt.ALUShr, sass.OpIMAD: simt.ALUMad,
	sass.OpFADD: simt.ALUFAdd, sass.OpFSUB: simt.ALUFSub, sass.OpFMUL: simt.ALUFMul,
	sass.OpFMIN: simt.ALUFMin, sass.OpFMAX: simt.ALUFMax, sass.OpFFMA: simt.ALUFFma,
	sass.OpRCP: simt.ALURcp, sass.OpEX2: simt.ALUExp2, sass.OpLG2: simt.ALULog2,
	sass.OpSQRT: simt.ALUSqrt, sass.OpI2F: simt.ALUI2F, sass.OpF2I: simt.ALUF2I,
	sass.OpSEL: simt.ALUSel,
}

// condOf is the simt condition of each ISETP/FSETP comparison.
var condOf = [...]simt.Cond{
	sass.CmpLT: simt.CondLT, sass.CmpLE: simt.CondLE, sass.CmpGT: simt.CondGT,
	sass.CmpGE: simt.CondGE, sass.CmpEQ: simt.CondEQ, sass.CmpNE: simt.CondNE,
}

// depReady returns the cycle at which every register/predicate dependency
// of the instruction is available.
func depReady(w *wave, in *sass.Instr) int64 {
	var t int64
	reg := func(r uint8) {
		if r != sass.RZ && int(r) < len(w.RegReady) && w.RegReady[r] > t {
			t = w.RegReady[r]
		}
	}
	pred := func(p uint8) {
		if p != sass.PT && w.ISA.predReady[p] > t {
			t = w.ISA.predReady[p]
		}
	}
	pred(in.Guard.Pred)
	for _, o := range in.Src {
		if o.Kind == sass.OperandReg {
			reg(o.Reg)
		}
	}
	switch in.Op {
	case sass.OpLDG, sass.OpSTG, sass.OpLDS, sass.OpSTS:
		reg(in.MemBase)
	}
	reg(in.Dst) // WAW
	if in.Op == sass.OpISETP || in.Op == sass.OpFSETP {
		pred(in.PDst)
	}
	if in.Op == sass.OpSEL {
		pred(in.PSrc)
	}
	return t
}

// guardMask returns the lanes whose guard predicate holds.
func (w *warp) guardMask(g sass.Guard) uint32 {
	if g.Pred == sass.PT {
		if g.Neg {
			return 0
		}
		return ^uint32(0)
	}
	m := w.preds[g.Pred]
	if g.Neg {
		m = ^m
	}
	return m
}

// unwind pops the SIMT stack while the active mask is empty; it marks the
// warp done when the stack is exhausted.
func unwind(d *Device, w *wave) {
	s := &w.ISA
	for s.active == 0 {
		if len(s.stack) == 0 {
			d.FinishWave(w)
			return
		}
		e := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		w.PC = e.pc
		s.active = e.mask &^ s.exited
	}
}

// TryIssue attempts to issue the warp's next instruction at the current
// cycle. It returns (issued, wakeCycle, error); wakeCycle is meaningful
// when issued is false and indicates when the blocking dependency clears.
func (i *isa) TryIssue(d *Device, w *wave, lc *simt.LaunchCtx) (bool, int64, error) {
	prog := i.prog
	if w.PC < 0 || w.PC >= len(prog.Instrs) {
		return false, 0, fmt.Errorf("nvsim: kernel %s: invalid PC %d (warp %d of block %d)",
			prog.Name, w.PC, w.Idx, w.Blk.ID)
	}
	in := &prog.Instrs[w.PC]
	if ready := depReady(w, in); ready > d.Cycle {
		return false, ready, nil
	}
	s := &w.ISA
	exec := s.active & s.guardMask(in.Guard)

	d.CountIssue(bits.OnesCount32(exec))
	lat := latency(d.Chip, sass.OpClass(in.Op))

	switch in.Op {
	case sass.OpNOP:
		w.PC++

	case sass.OpEXIT:
		s.exited |= exec
		s.active &^= exec
		if exec == 0 {
			w.PC++
		} else if s.active == 0 {
			unwind(d, w)
		} else {
			w.PC++
		}

	case sass.OpBRA:
		taken := exec
		notTaken := s.active &^ taken
		switch {
		case taken == 0:
			w.PC++
		case notTaken == 0:
			w.PC = in.Target
		default:
			s.stack = append(s.stack, stackEntry{kind: stackDIV, pc: in.Target, mask: taken})
			s.active = notTaken
			w.PC++
		}

	case sass.OpSSY:
		s.stack = append(s.stack, stackEntry{kind: stackSSY, pc: in.Target, mask: s.active})
		w.PC++

	case sass.OpSYNC:
		if len(s.stack) == 0 {
			return false, 0, fmt.Errorf("nvsim: kernel %s: SYNC with empty SIMT stack at PC %d",
				prog.Name, w.PC)
		}
		e := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		w.PC = e.pc
		s.active = e.mask &^ s.exited
		if s.active == 0 {
			unwind(d, w)
		}

	case sass.OpBAR:
		w.PC++
		d.ArriveBarrier(w)

	case sass.OpS2R:
		var v [32]uint32
		for lane := range v {
			v[lane] = specialReg(w, lc, lane, in.SR)
		}
		i.scatter(d, w, exec, in.Dst, &v)
		if in.Dst != sass.RZ {
			w.RegReady[in.Dst] = d.Cycle + lat
		}
		w.PC++

	case sass.OpISETP, sass.OpFSETP:
		if uint(in.Cmp) >= uint(len(condOf)) {
			return false, 0, fmt.Errorf("nvsim: kernel %s: unknown comparison %v (PC %d)", prog.Name, in.Cmp, w.PC)
		}
		cond, ty := condOf[in.Cmp], simt.CmpI32
		if in.Op == sass.OpFSETP {
			ty = simt.CmpF32
		}
		var a, b [32]uint32
		i.gather(d, w, lc, exec, in.Src[0], &a)
		i.gather(d, w, lc, exec, in.Src[1], &b)
		var setMask uint32
		for lane := 0; lane < 32; lane++ {
			if exec&(1<<lane) != 0 && simt.Compare(cond, ty, a[lane], b[lane]) {
				setMask |= 1 << lane
			}
		}
		s.preds[in.PDst] = (s.preds[in.PDst] &^ exec) | setMask
		s.predReady[in.PDst] = d.Cycle + lat
		w.PC++

	case sass.OpLDG, sass.OpSTG, sass.OpLDS, sass.OpSTS:
		if err := i.execMem(d, w, lc, in, exec); err != nil {
			return false, 0, err
		}
		if (in.Op == sass.OpLDG || in.Op == sass.OpLDS) && in.Dst != sass.RZ {
			w.RegReady[in.Dst] = d.Cycle + lat
		}
		w.PC++

	default: // register-to-register ALU/SFU ops and SEL
		op := simt.ALUNone
		if uint(in.Op) < uint(len(aluOf)) {
			op = aluOf[in.Op]
		}
		if op == simt.ALUNone {
			return false, 0, fmt.Errorf("nvsim: kernel %s: opcode %v has no lane semantics (PC %d)", prog.Name, in.Op, w.PC)
		}
		i.execALU(d, w, lc, in, exec, op)
		if in.Dst != sass.RZ {
			w.RegReady[in.Dst] = d.Cycle + lat
		}
		w.PC++
	}

	if w.PC >= len(prog.Instrs) && !w.Done && in.Op != sass.OpEXIT {
		// Fell off the end of the instruction stream: invalid control
		// flow (can be reached through fault-corrupted indices only via
		// EXIT-less paths, which the assembler rejects; keep it fatal).
		return false, 0, fmt.Errorf("nvsim: kernel %s: control flow fell off program end", prog.Name)
	}
	return true, 0, nil
}

// specialReg evaluates S2R for one lane.
func specialReg(w *wave, lc *simt.LaunchCtx, lane int, sr sass.SpecialReg) uint32 {
	t := w.ThreadBase + lane
	ntx, nty := lc.Group.X, lc.Group.Y
	if ntx <= 0 {
		ntx = 1
	}
	if nty <= 0 {
		nty = 1
	}
	switch sr {
	case sass.SRTidX:
		return uint32(t % ntx)
	case sass.SRTidY:
		return uint32((t / ntx) % nty)
	case sass.SRCtaidX:
		return uint32(w.Blk.X)
	case sass.SRCtaidY:
		return uint32(w.Blk.Y)
	case sass.SRNTidX:
		return uint32(ntx)
	case sass.SRNTidY:
		return uint32(nty)
	case sass.SRNCtaidX:
		x := lc.Grid.X
		if x <= 0 {
			x = 1
		}
		return uint32(x)
	case sass.SRNCtaidY:
		y := lc.Grid.Y
		if y <= 0 {
			y = 1
		}
		return uint32(y)
	case sass.SRLaneID:
		return uint32(lane)
	case sass.SRWarpID:
		return uint32(w.Idx)
	default:
		return 0
	}
}

// execALU computes op in one simt.ALUs call over the lanes and writes
// the destination on every lane in exec; a lane outside exec computes on
// the zeros gather left, which no write keeps. The sources are gathered
// first, one operand at a time: a lane reads its sources before it
// writes, as it would one lane at a time, and lanes share no registers.
func (i *isa) execALU(d *Device, w *wave, lc *simt.LaunchCtx, in *sass.Instr, exec uint32, op simt.ALUOp) {
	var a, b, c [32]uint32
	i.gather(d, w, lc, exec, in.Src[0], &a)
	i.gather(d, w, lc, exec, in.Src[1], &b)
	if in.Op == sass.OpSEL {
		// SEL's predicate is simt's third operand, one bit per lane.
		sel := ^uint32(0)
		if in.PSrc != sass.PT {
			sel = w.ISA.preds[in.PSrc]
		}
		for lane := range c {
			c[lane] = sel >> lane & 1
		}
	} else {
		i.gather(d, w, lc, exec, in.Src[2], &c)
	}
	simt.ALUs(op, a[:], b[:], c[:])
	i.scatter(d, w, exec, in.Dst, &a)
}

// The register file is thread-major within the warp's window: register
// r of lane l is entry RegBase + r + l*NumRegs.

// gather reads source operand o on every lane in exec into v; v holds
// zeros where o is unused or RZ.
func (i *isa) gather(d *Device, w *wave, lc *simt.LaunchCtx, exec uint32, o sass.Operand, v *[32]uint32) {
	switch o.Kind {
	case sass.OperandReg:
		if o.Reg != sass.RZ {
			d.ReadRegs(w, int(o.Reg), i.prog.NumRegs, uint64(exec), v[:])
		}
	case sass.OperandImm, sass.OperandConst:
		x := o.Imm
		if o.Kind == sass.OperandConst {
			x = lc.Args[o.CIdx]
		}
		for lane := range v {
			v[lane] = x
		}
	}
}

// scatter writes v into register r on every lane in exec, the mirror of
// gather; a write of RZ is dropped.
func (i *isa) scatter(d *Device, w *wave, exec uint32, r uint8, v *[32]uint32) {
	if r != sass.RZ {
		d.WriteRegs(w, int(r), i.prog.NumRegs, uint64(exec), v[:])
	}
}

// execMem performs LDG/STG or LDS/STS for every lane in exec; LDS/STS
// address the block's shared-memory window. The address bases and a
// store's data are gathered before any lane accesses memory.
func (i *isa) execMem(d *Device, w *wave, lc *simt.LaunchCtx, in *sass.Instr, exec uint32) error {
	var base, v [32]uint32
	i.gather(d, w, lc, exec, sass.R(int(in.MemBase)), &base)
	store := in.Op == sass.OpSTG || in.Op == sass.OpSTS
	if store {
		i.gather(d, w, lc, exec, in.Src[0], &v)
	}
	var err error
	if in.Op == sass.OpLDS || in.Op == sass.OpSTS {
		err = d.AccessLocal(w, uint64(exec), base[:], uint32(in.MemOff), v[:], store)
	} else {
		err = d.AccessGlobal(w, uint64(exec), base[:], uint32(in.MemOff), v[:], store)
	}
	if err == nil && !store {
		i.scatter(d, w, exec, in.Dst, &v)
	}
	return err
}
