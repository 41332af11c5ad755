// Package amdsim is a cycle-level simulator of AMD Southern Islands
// compute units executing the SI-like ISA of internal/siasm. It is the
// reproduction's stand-in for Multi2Sim 4.2, the substrate of the paper's
// SIFI tool.
//
// The machine — compute units, workgroup residency, wavefront
// arbitration, scoreboarding, fault injection (the physical VGPR file is
// the paper's "vector register file", the LDS its "local memory"),
// tracing and checkpoints — is internal/simt; this package is its SI
// plug-in: each wavefront of 64 work-items executes scalar instructions
// once and vector instructions per active lane under the program-managed
// EXEC mask (a Tahiti CU feeds 4 SIMD units, one wavefront slot each per
// 4-cycle cadence).
package amdsim

import (
	"fmt"

	"repro/internal/chips"
	"repro/internal/gpu"
	"repro/internal/siasm"
	"repro/internal/simt"
	"repro/internal/wire"
)

// Device is one simulated AMD GPU.
type Device = simt.Device[wavefront]

type (
	wave      = simt.Wave[wavefront]
	waveState = simt.WaveState[wavefront]
)

// New creates a device for an AMD chip configuration.
func New(chip *chips.Chip) (*Device, error) { return simt.New[wavefront](chip, &isa{}) }

// wavefront is the SI architectural state of one wavefront: a plain
// struct, so copying it is assignment.
type wavefront struct {
	valid uint64
	exec  uint64
	vcc   uint64
	scc   bool
	sgprs [siasm.MaxSGPRs]uint32

	sgprReady [siasm.MaxSGPRs]int64
	vccReady  int64
	execReady int64
	sccReady  int64
}

// isa is the SI plug-in of one device; prog is the kernel of the launch
// in progress.
type isa struct {
	prog *siasm.Program
}

func (*isa) Name() string       { return "amdsim" }
func (*isa) Vendor() gpu.Vendor { return gpu.AMD }

func (i *isa) Bind(k gpu.Kernel) (int, error) {
	prog, ok := k.(*siasm.Program)
	if !ok {
		return 0, fmt.Errorf("amdsim: kernel %T is not a *siasm.Program", k)
	}
	i.prog = prog
	return prog.NumKArgs, nil
}

func (*isa) InitWave(d *Device, w *wave, lc *simt.LaunchCtx) {
	ww := d.Chip.WarpWidth
	valid := ^uint64(0) >> (64 - ww)
	if n := lc.Threads - w.ThreadBase; n < ww {
		valid = (uint64(1) << n) - 1
	}
	w.ISA = wavefront{valid: valid, exec: valid}
	w.ISA.sgprs[siasm.SRegWGIDX] = uint32(w.Blk.X)
	w.ISA.sgprs[siasm.SRegWGIDY] = uint32(w.Blk.Y)
	// Hardware preloads the work-item local id into v0 (and v1 for 2-D
	// groups). These are genuine VGPR writes: trace them.
	lsx, lsy := lc.Group.X, lc.Group.Y
	if lsx <= 0 {
		lsx = 1
	}
	if lsy <= 0 {
		lsy = 1
	}
	var x, y [64]uint32
	for lane := range x[:ww] {
		t := w.ThreadBase + lane
		x[lane], y[lane] = uint32(t%lsx), uint32((t/lsx)%lsy)
	}
	scatter(d, w, valid, 0, &x)
	if lc.RegsPerThread > 1 {
		scatter(d, w, valid, 1, &y)
	}
}

func (*isa) CopyState(dst, src *wavefront) { *dst = *src }

func (*isa) EncodeState(w *wire.Writer, ws *waveState) {
	s := &ws.ISA
	w.U64(s.valid)
	w.U64(s.exec)
	w.U64(s.vcc)
	w.Bool(s.scc)
	for _, v := range s.sgprs {
		w.U32(v)
	}
	w.I64s(ws.RegReady)
	for _, rdy := range s.sgprReady {
		w.I64(rdy)
	}
	w.I64(s.vccReady)
	w.I64(s.execReady)
	w.I64(s.sccReady)
}

func (*isa) DecodeState(r *wire.Reader, ws *waveState) error {
	s := &ws.ISA
	s.valid = r.U64()
	s.exec = r.U64()
	s.vcc = r.U64()
	s.scc = r.Bool()
	for si := range s.sgprs {
		s.sgprs[si] = r.U32()
	}
	ws.RegReady = r.I64s()
	for si := range s.sgprReady {
		s.sgprReady[si] = r.I64()
	}
	s.vccReady = r.I64()
	s.execReady = r.I64()
	s.sccReady = r.I64()
	return r.Err()
}

// The amdsim wave record ends with the wavefront's physical VGPR base,
// which the core derives rather than stores: write it, and on decode
// require the stored value to agree with the recomputed one.
func (*isa) EncodeTrailer(w *wire.Writer, ws *waveState) { w.Int(ws.RegBase) }

func (*isa) DecodeTrailer(r *wire.Reader, ws *waveState) error {
	if base := r.Int(); r.Err() == nil && base != ws.RegBase {
		return fmt.Errorf("%w: wavefront VGPR base %d, expected %d", wire.ErrCorrupt, base, ws.RegBase)
	}
	return r.Err()
}
