package simt

import (
	"repro/internal/gpu"
	"repro/internal/wire"
)

// ISA is the plug-in a vendor simulator supplies: how its kernels are
// recognized, what a wave's architectural state is (the type parameter
// W, a plain struct), how one wave instruction executes, and how W is
// copied and serialized. The machine core crosses this boundary once per
// wave per event — never per lane: inside TryIssue and InitWave the
// plug-in reads and writes Unit.Regs / Unit.Local, Device.Cycle and
// Device.Tracer directly.
//
// An ISA value belongs to one Device: Bind may cache the program the
// following InitWave/TryIssue calls execute.
type ISA[W any] interface {
	// Name prefixes the device's error messages ("nvsim", "amdsim").
	Name() string
	// Vendor is the chip vendor the ISA runs on.
	Vendor() gpu.Vendor
	// Bind type-checks the launch's kernel handle and reports the number
	// of 32-bit parameter words it reads; the kernel's register and
	// local-memory demand comes from the gpu.Kernel interface itself.
	Bind(k gpu.Kernel) (params int, err error)
	// InitWave sets w.ISA to the state of a freshly dispatched wave; the
	// core has already set w.WaveCore and zeroed w.RegReady. Recycled
	// storage carries stale values: every field must be rewritten.
	InitWave(d *Device[W], u *Unit[W], w *Wave[W], lc *LaunchCtx)
	// TryIssue attempts to issue w's next instruction at the current
	// cycle. It returns (issued, wakeCycle, error); wakeCycle is
	// meaningful when issued is false and is the cycle at which the
	// blocking dependency clears.
	TryIssue(d *Device[W], u *Unit[W], w *Wave[W], lc *LaunchCtx) (bool, int64, error)
	// CopyState deep-copies src into dst, reusing dst's slice capacity
	// (restore runs once per injection and must not allocate).
	CopyState(dst, src *W)
	// EncodeState / DecodeState serialize the ISA section of a wave's
	// snapshot record — ws.ISA and, at its historical position inside
	// that section, ws.RegReady. DecodeState must bound every allocation
	// by the reader's remaining bytes.
	EncodeState(w *wire.Writer, ws *WaveState[W])
	DecodeState(r *wire.Reader, ws *WaveState[W]) error
	// EncodeTrailer / DecodeTrailer serialize whatever the vendor's
	// historical record carries after the common tail (see wirecodec.go);
	// DecodeTrailer runs after the core has recomputed ws.RegBase.
	EncodeTrailer(w *wire.Writer, ws *WaveState[W])
	DecodeTrailer(r *wire.Reader, ws *WaveState[W]) error
}

// LaunchCtx holds the per-launch geometry shared by the core and the
// execution helpers.
type LaunchCtx struct {
	Args          []uint32
	Grid          gpu.Dim3
	Group         gpu.Dim3
	Threads       int // work-items per block
	WavesPerBlock int
	RegsPerThread int

	regsPerBlock  int
	localPerBlock int
}

// CountIssue accounts one issued wave instruction executing on the given
// number of lanes.
func (d *Device[W]) CountIssue(lanes int) {
	d.stats.Instructions++
	d.stats.LaneInstructions += int64(lanes)
}

// FinishWave retires a wave and releases a barrier that was waiting only
// on already-finished waves.
func (d *Device[W]) FinishWave(u *Unit[W], w *Wave[W]) {
	if w.Done {
		return
	}
	w.Done = true
	blk := w.Blk
	blk.live--
	u.liveWave--
	if blk.live > 0 && blk.arrived >= blk.live {
		blk.releaseBarrier(d.Cycle)
	}
}

// ArriveBarrier parks w at its block's barrier, releasing the barrier
// when every live wave of the block has arrived.
func (d *Device[W]) ArriveBarrier(w *Wave[W]) {
	w.atBarrier = true
	blk := w.Blk
	blk.arrived++
	if blk.arrived >= blk.live {
		blk.releaseBarrier(d.Cycle)
	}
}

func (blk *Block[W]) releaseBarrier(cycle int64) {
	blk.arrived = 0
	for _, w := range blk.waves {
		if !w.Done && w.atBarrier {
			w.atBarrier = false
			w.wakeAt = cycle
		}
	}
}
