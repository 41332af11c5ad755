package amdsim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/chips"
	"repro/internal/gpu"
	"repro/internal/siasm"
	"repro/internal/workloads"
)

// FuzzSnapshotRestore mirrors the nvsim target: for arbitrary assembled
// SI programs and arbitrary snapshot cycles, restore-then-run — on a
// fresh device and on one another kernel was just cut off in — must end
// in exactly the state, statistics and error of the uninterrupted run.
// The seed corpus is the paper suite's real SI kernels.
func FuzzSnapshotRestore(f *testing.F) {
	for _, src := range workloads.KernelSources(gpu.AMD) {
		f.Add(src, uint32(1000))
	}
	f.Add(".kernel k\ns_endpgm\n", uint32(0))
	f.Add(".kernel k\ns_mov_b32 s4, 7\nloop:\ns_add_i32 s4, s4, 1\ns_branch loop\ns_endpgm\n", uint32(5000))
	// matrixMul: registers, local memory and global stores in every unit.
	residue, err := siasm.Assemble(workloads.KernelSources(gpu.AMD)[6])
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string, snapRaw uint32) {
		prog, err := siasm.Assemble(src)
		if err != nil {
			return
		}
		chip := chips.MiniAMD()
		const watchdog = 100_000
		snapCycle := int64(snapRaw % 60_000)

		drive := func(d *Device, prog *siasm.Program) error {
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
			args := make([]uint32, prog.NumKArgs)
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
