package simt

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/wire"
)

// Checkpointed fast-forward: the golden run captures snapshots of the
// complete device state at scheduling boundaries (the top of the launch
// loop, where an iteration's dispatch/issue/retire work has not yet
// begun), and each injection restores the greatest snapshot below its
// fault cycle instead of re-simulating the fault-free prefix.
//
// Restoring arms resume mode: the host program is replayed from its
// start, device memory suppresses its already-applied allocations and
// uploads (gpu.Memory replay mode), Launch calls for launches the
// snapshot already completed return immediately, and the launch the
// snapshot interrupted re-enters the loop at the captured boundary.
// Because the loop's continuation depends only on the restored state,
// execution from that point is bit-identical to an uninterrupted run.

// snapshot is the gpu.Snapshot of a Device[W]: an immutable copy of every
// piece of state the launch loop reads or writes — device memory, register
// files and local memories as copy-on-write page images that share what
// did not change with the rungs before, everything else deep-copied. The
// type parameter keeps the two vendors' snapshots distinct types, so
// restoring one into the other fails the type assertion.
type snapshot[W any] struct {
	cycle int64
	stats gpu.RunStats
	mem   *gpu.MemImage
	units []unitSnap[W]
	// regsPerUnit and localPerUnit are the chip's structure sizes: the
	// geometry a restore checks and the lengths the page images flatten to.
	regsPerUnit, localPerUnit int
	// launches is the number of completed Launch calls at capture; a
	// restore skips that many host launches before resuming.
	launches int
	// inflight carries the interrupted launch's loop state; nil when the
	// snapshot was taken between launches.
	inflight *inflightState
	bytes    int64
}

// Cycle implements gpu.Snapshot.
func (s *snapshot[W]) Cycle() int64 { return s.cycle }

// SizeBytes implements gpu.Snapshot: the heap this snapshot added, that
// is the memory, register and local-memory pages it holds a copy of its
// own of (captured: copied because they had changed since the rung
// before; decoded: not all zero) plus the slot tables. Pages shared with
// an older rung, the zero page and mapped pages cost nothing.
func (s *snapshot[W]) SizeBytes() int64 { return s.bytes }

// account sets bytes from the memory image and the unit images.
func (s *snapshot[W]) account() {
	s.bytes = s.mem.SizeBytes()
	for i := range s.units {
		s.bytes += int64(s.units[i].owned)*gpu.PageSize + int64(len(s.units[i].blocks))
	}
}

// inflightState is the interrupted launch's loop-local state.
type inflightState struct {
	nextBlock   int
	retired     int
	launchStart int64
}

// unitSnap is the image of one unit.
type unitSnap[W any] struct {
	unitImage
	blocks []*blockSnap[W] // indexed by slot; nil = free
	rr     int
	// greedySlot/greedyWave locate the GTO head wave; -1 when there is
	// none worth re-finding (nil, retired or done — all of which the
	// issue logic treats identically to nil).
	greedySlot, greedyWave int
}

type blockSnap[W any] struct {
	BlockState
	waves []WaveState[W]
}

// copyWave deep-copies src into dst, reusing dst's slice capacity. It is
// the one place that knows which parts of a wave are not plain data.
func (d *Device[W]) copyWave(dst, src *WaveState[W]) {
	dst.WaveCore = src.WaveCore
	dst.RegReady = append(dst.RegReady[:0], src.RegReady...)
	d.isa.CopyState(&dst.ISA, &src.ISA)
}

// Snapshot implements gpu.Device: it captures the state between
// launches (mid-launch snapshots come from the checkpoint hook, which
// supplies the in-flight loop state).
func (d *Device[W]) Snapshot() gpu.Snapshot { return d.capture(nil) }

// capture copies the device state.
func (d *Device[W]) capture(inflight *inflightState) *snapshot[W] {
	snap := &snapshot[W]{
		cycle:        d.Cycle,
		stats:        d.stats,
		mem:          d.mem.Image(),
		regsPerUnit:  d.Chip.RegsPerUnit,
		localPerUnit: d.Chip.LocalBytesPerUnit,
		launches:     d.stats.Launches,
		inflight:     inflight,
	}
	snap.units = make([]unitSnap[W], len(d.units))
	for i, u := range d.units {
		img := unitSnap[W]{
			unitImage:  u.image(i),
			blocks:     make([]*blockSnap[W], len(u.blocks)),
			rr:         u.rr,
			greedySlot: -1, greedyWave: -1,
		}
		for slot, blk := range u.blocks {
			if blk == nil {
				continue
			}
			u.written(&blk.BlockState) // a resident block keeps writing
			bs := &blockSnap[W]{BlockState: blk.BlockState, waves: make([]WaveState[W], len(blk.waves))}
			for wi, w := range blk.waves {
				d.copyWave(&bs.waves[wi], &w.WaveState)
				if u.greedy == w && !w.Done {
					img.greedySlot, img.greedyWave = slot, wi
				}
			}
			img.blocks[slot] = bs
		}
		snap.units[i] = img
	}
	snap.account()
	return snap
}

// Restore implements gpu.Device. It replaces the execution state with
// the snapshot's and arms fast-forward resume; the armed fault, tracer
// and watchdog are left untouched. A snapshot of the other vendor or of
// a different chip geometry is refused before anything is modified.
func (d *Device[W]) Restore(s gpu.Snapshot) error {
	snap, ok := s.(*snapshot[W])
	if !ok {
		return fmt.Errorf("%s: cannot restore a %T snapshot", d.isa.Name(), s)
	}
	if len(snap.units) != len(d.units) || snap.regsPerUnit != d.Chip.RegsPerUnit || snap.localPerUnit != d.Chip.LocalBytesPerUnit {
		return fmt.Errorf("%s: snapshot geometry does not match chip %s", d.isa.Name(), d.Chip.Name)
	}
	if err := d.mem.SetImage(snap.mem); err != nil {
		return err
	}
	for i := range snap.units {
		img, u := &snap.units[i], d.units[i]
		u.setImage(i, &img.unitImage)
		// Recycle the current residents, then rebuild the slot table
		// from the image reusing retained object and slice capacity:
		// restore runs once per injection, so it must not allocate.
		u.resetSlots(len(img.blocks))
		u.rr = img.rr
		for slot, bs := range img.blocks {
			if bs == nil {
				continue
			}
			u.written(&bs.BlockState) // a resident block keeps writing
			blk := u.takeBlock()
			blk.BlockState = bs.BlockState
			blk.sizeWaves(len(bs.waves))
			for wi, w := range blk.waves {
				w.Blk = blk
				d.copyWave(&w.WaveState, &bs.waves[wi])
				if !w.Done {
					u.liveWave++
				}
				if slot == img.greedySlot && wi == img.greedyWave {
					u.greedy = w
				}
			}
			u.blocks[slot] = blk
		}
	}
	d.stats = snap.stats
	d.Cycle = snap.cycle
	d.resume = &resumeState{skip: snap.launches, inflight: snap.inflight}
	return nil
}

// SetCheckpointHook implements gpu.Device.
func (d *Device[W]) SetCheckpointHook(next int64, fn func(s gpu.Snapshot) int64) {
	d.ckptFn = fn
	d.ckptNext = next
}

// resumeState tracks an armed fast-forward: skip counts the completed
// launches the host program will replay, inflight (when non-nil) is the
// loop state of the launch the snapshot interrupted.
type resumeState struct {
	skip     int
	inflight *inflightState
}

// checkResident verifies, before a restored launch re-enters its loop,
// that the resident blocks are ones this launch would have dispatched: a
// snapshot decoded from disk (or restored under a different host
// program) must fail here, not index out of range on the per-lane path,
// which trusts the block windows and scoreboard lengths.
func (d *Device[W]) checkResident(lc *LaunchCtx, slots int, in *inflightState) error {
	bad := func(what string) error {
		return fmt.Errorf("%s: %w: restored state does not fit the resumed launch (%s)", d.isa.Name(), wire.ErrCorrupt, what)
	}
	total, resident := lc.Grid.Count(), 0
	for _, u := range d.units {
		if len(u.blocks) != slots {
			return bad("slots per unit")
		}
		for slot, blk := range u.blocks {
			if blk == nil {
				continue
			}
			resident++
			if blk.Slot != slot || blk.RegCount != lc.regsPerBlock || blk.RegBase != slot*lc.regsPerBlock ||
				blk.LocalCount != lc.localPerBlock || blk.LocalBase != slot*lc.localPerBlock {
				return bad("block windows")
			}
			if len(blk.waves) != lc.WavesPerBlock {
				return bad("waves per block")
			}
			for _, w := range blk.waves {
				if len(w.RegReady) != lc.RegsPerThread {
					return bad("scoreboard length")
				}
			}
		}
	}
	if in.retired < 0 || in.nextBlock > total || in.nextBlock-in.retired != resident {
		return bad("launch progress")
	}
	return nil
}
