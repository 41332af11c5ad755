// Package nvsim is a cycle-level simulator of NVIDIA-style SIMT GPUs
// (G80, GT200, Fermi) executing the SASS-like ISA of internal/sass. It is
// the reproduction's stand-in for GPGPU-Sim 3.2.2, the substrate of the
// paper's GUFI tool.
//
// The machine — streaming multiprocessors, thread-block residency, warp
// arbitration, scoreboarding, fault injection, tracing and checkpoints —
// is internal/simt; this package is its SASS plug-in: each warp of 32
// threads executes in lockstep with a SIMT reconvergence stack
// (SSY/SYNC), per-lane predicates and per-class instruction latencies.
package nvsim

import (
	"fmt"

	"repro/internal/chips"
	"repro/internal/gpu"
	"repro/internal/sass"
	"repro/internal/simt"
)

// Device is one simulated NVIDIA GPU.
type Device = simt.Device[warp]

type wave = simt.Wave[warp]

// New creates a device for an NVIDIA chip configuration.
func New(chip *chips.Chip) (*Device, error) { return simt.New[warp](chip, &isa{}) }

type stackKind uint8

const (
	stackSSY stackKind = iota
	stackDIV
)

type stackEntry struct {
	kind stackKind
	pc   int
	mask uint32
}

// warp is the SASS architectural state of one warp.
type warp struct {
	valid     uint32 // lanes that carry real threads
	active    uint32 // current SIMT active mask
	exited    uint32 // lanes that executed EXIT
	stack     []stackEntry
	preds     [sass.NumPreds]uint32 // per-lane predicate bits
	predReady [sass.NumPreds]int64
}

// isa is the SASS plug-in of one device; prog is the kernel of the launch
// in progress.
type isa struct {
	prog *sass.Program
}

func (*isa) Name() string       { return "nvsim" }
func (*isa) Vendor() gpu.Vendor { return gpu.NVIDIA }

func (i *isa) Bind(k gpu.Kernel) (int, error) {
	prog, ok := k.(*sass.Program)
	if !ok {
		return 0, fmt.Errorf("nvsim: kernel %T is not a *sass.Program", k)
	}
	i.prog = prog
	return prog.NumParams, nil
}

func (*isa) InitWave(d *Device, w *wave, lc *simt.LaunchCtx) {
	valid := ^uint32(0)
	if n := lc.Threads - w.ThreadBase; n < d.Chip.WarpWidth {
		valid = (uint32(1) << n) - 1
	}
	w.ISA = warp{valid: valid, active: valid, stack: w.ISA.stack[:0]}
}

func (*isa) CopyState(dst, src *warp) {
	stack := dst.stack
	*dst = *src
	dst.stack = append(stack[:0], src.stack...)
}
