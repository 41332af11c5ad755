package nvsim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/chips"
	"repro/internal/gpu"
	"repro/internal/sass"
	"repro/internal/workloads"
)

// FuzzSnapshotRestore is the simulator-level half of the checkpointing
// proof: for arbitrary assembled programs and arbitrary snapshot cycles,
// capturing a snapshot mid-run, restoring it — into a fresh device, and
// into one that another kernel has just run on and been cut off in, as an
// injection replica is — and re-driving the same host sequence must end
// in exactly the state and statistics of the uninterrupted run, including
// identical errors for programs that fault, deadlock or hit the
// watchdog. The seed corpus is
// the paper suite's real kernels, so the population covers every
// control-flow and memory shape the campaigns exercise.
func FuzzSnapshotRestore(f *testing.F) {
	for _, src := range workloads.KernelSources(gpu.NVIDIA) {
		f.Add(src, uint32(1000))
	}
	f.Add(".kernel k\nEXIT\n", uint32(0))
	f.Add(".kernel k\nMOV R0, 7\nloop:\nIADD R0, R0, 1\nBRA loop\nEXIT\n", uint32(5000))
	// matrixMul: registers, local memory and global stores in every unit.
	residue, err := sass.Assemble(workloads.KernelSources(gpu.NVIDIA)[6])
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string, snapRaw uint32) {
		prog, err := sass.Assemble(src)
		if err != nil {
			return
		}
		chip := chips.MiniNVIDIA()
		const watchdog = 100_000
		snapCycle := int64(snapRaw % 60_000)

		// drive replays the deterministic host sequence: allocate and
		// fill a scratch buffer, then launch with every parameter
		// pointing into it (fault-free wild programs still abort
		// identically either way).
		drive := func(d *Device, prog *sass.Program) error {
			buf, err := d.Mem().Alloc(4096)
			if err != nil {
				return err
			}
			words := make([]uint32, 1024)
			for i := range words {
				words[i] = uint32(i * 2654435761)
			}
			if err := d.Mem().WriteWords(buf, words); err != nil {
				return err
			}
			args := make([]uint32, prog.NumParams)
			for i := range args {
				args[i] = buf
			}
			return d.Launch(gpu.LaunchSpec{
				Kernel: prog, Grid: gpu.D1(2), Group: gpu.D1(64), Args: args,
			})
		}

		full, err := New(chip)
		if err != nil {
			t.Fatal(err)
		}
		full.SetWatchdog(watchdog)
		var snap gpu.Snapshot
		full.SetCheckpointHook(snapCycle, func(s gpu.Snapshot) int64 {
			snap = s
			return -1 // one capture per run
		})
		fullErr := drive(full, prog)
		if snap == nil {
			// The run ended (or failed) before the snapshot cycle;
			// nothing to restore.
			return
		}

		final := full.Snapshot()
		for _, used := range []bool{false, true} {
			resumed, err := New(chip)
			if err != nil {
				t.Fatal(err)
			}
			if used {
				// What a replica's last injection leaves behind: another
				// kernel's values in all three structures and, cut off by
				// the watchdog, its blocks still resident.
				resumed.SetWatchdog(300)
				_ = drive(resumed, residue)
			}
			resumed.SetWatchdog(watchdog)
			if err := resumed.Restore(snap); err != nil {
				t.Fatalf("restore: %v", err)
			}
			resumedErr := drive(resumed, prog)

			if fmt.Sprint(fullErr) != fmt.Sprint(resumedErr) {
				t.Fatalf("errors diverge (used device: %v): full=%v resumed=%v\nprogram:\n%s", used, fullErr, resumedErr, src)
			}
			if full.Stats() != resumed.Stats() {
				t.Fatalf("stats diverge (used device: %v):\nfull:    %+v\nresumed: %+v\nprogram:\n%s", used, full.Stats(), resumed.Stats(), src)
			}
			// A snapshot holds every piece of live state, so two fresh
			// ones are a complete state comparison.
			if !reflect.DeepEqual(final, resumed.Snapshot()) {
				t.Fatalf("device state diverges after resume (used device: %v, snapshot at cycle %d)\nprogram:\n%s", used, snap.Cycle(), src)
			}
		}
	})
}
