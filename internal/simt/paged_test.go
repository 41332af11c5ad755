package simt_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chips"
	"repro/internal/devices"
	"repro/internal/gpu"
	"repro/internal/simt"
	"repro/internal/workloads"
)

// replica is one injection replica as internal/finject keeps it: a
// device and a host program of its own, reused for every injection.
type replica struct {
	t  *testing.T
	d  gpu.Device
	hp *gpu.HostProgram
}

func newReplica(t *testing.T, chip *chips.Chip, bench *workloads.Benchmark) *replica {
	t.Helper()
	d, err := devices.New(chip)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := bench.New(chip.Vendor)
	if err != nil {
		t.Fatal(err)
	}
	return &replica{t: t, d: d, hp: hp}
}

// golden runs the benchmark from power-on, fault-free, capturing a rung
// every interval cycles (none when interval is 0), and returns the
// ladder, the output bytes and the statistics.
func (r *replica) golden(interval int64) (ladder []gpu.Snapshot, out []byte, stats gpu.RunStats) {
	r.t.Helper()
	r.d.Reset()
	if interval > 0 {
		r.d.SetCheckpointHook(interval, func(s gpu.Snapshot) int64 {
			ladder = append(ladder, s)
			return s.Cycle() + interval
		})
	}
	if err := r.hp.Run(r.d); err != nil {
		r.t.Fatalf("fault-free run: %v", err)
	}
	r.d.SetCheckpointHook(0, nil)
	return ladder, r.outputs(), r.d.Stats()
}

func (r *replica) outputs() []byte {
	r.t.Helper()
	var out []byte
	for _, reg := range r.hp.Outputs() {
		bs, err := r.d.Mem().ReadBytes(reg.Addr, int(reg.Size))
		if err != nil {
			r.t.Fatal(err)
		}
		out = append(out, bs...)
	}
	return out
}

// inject is finject.classify's use of the device: restore the greatest
// rung at or below the fault cycle, or reset when there is none, arm the
// fault and run the host program to whatever end it comes to.
func (r *replica) inject(ladder []gpu.Snapshot, f *gpu.Fault, at, watchdog int64) error {
	r.t.Helper()
	var rung gpu.Snapshot
	for _, s := range ladder {
		if s.Cycle() <= at {
			rung = s
		}
	}
	if rung == nil {
		r.d.Reset()
	} else if err := r.d.Restore(rung); err != nil {
		r.t.Fatalf("restore of the rung at cycle %d: %v", rung.Cycle(), err)
	}
	r.d.SetWatchdog(watchdog)
	r.d.InjectFault(f)
	return r.hp.Run(r.d)
}

// pagedPair drives one (chip, benchmark) pair through everything an
// injection replica lives through, for both structures, with every
// capture and every restore compared against flat copies by the
// package's page check (pagecheck_test.go) — which is what fails, by
// panicking, when paged state is not the flat state. What this function
// asserts itself is the end-to-end consequence: a run that resumes from
// a restored rung, whatever the device ran before, ends like the
// uninterrupted one.
func pagedPair(t *testing.T, chip *chips.Chip, bench *workloads.Benchmark) {
	ref := newReplica(t, chip, bench)
	_, want, stats := ref.golden(0)
	interval := stats.Cycles/6 + 1
	ladder, out, st := ref.golden(interval)
	if len(ladder) == 0 || !bytes.Equal(out, want) || st != stats {
		t.Fatalf("the run that captured %d rungs differs from the one that captured none", len(ladder))
	}

	rep := newReplica(t, chip, bench)
	clean := func(after string, at int64) {
		t.Helper()
		if err := rep.inject(ladder, nil, at, 0); err != nil {
			t.Fatalf("fault-free resume at cycle %d after %s: %v", at, after, err)
		}
		if got := rep.outputs(); !bytes.Equal(got, want) || rep.d.Stats() != stats {
			t.Fatalf("fault-free resume at cycle %d after %s ends differently from the uninterrupted run", at, after)
		}
	}
	last := ladder[len(ladder)-1].Cycle()
	rng := rand.New(rand.NewSource(int64(len(bench.Name)) + stats.Cycles))
	for _, st := range []gpu.Structure{gpu.RegisterFile, gpu.LocalMemory} {
		size := chip.StructSize(st)
		// Faulted runs, from every rung and from reset: most flips land in
		// live state; what the run does with them is not asserted.
		for i := 0; i < 8; i++ {
			at := rng.Int63n(stats.Cycles)
			f := &gpu.Fault{Structure: st, Unit: rng.Intn(chip.Units), Entry: rng.Intn(size), Bit: uint(rng.Intn(8)), Cycle: at}
			_ = rep.inject(ladder, f, at, 4*stats.Cycles)
			clean(fmt.Sprintf("the run with %v", f), rng.Int63n(stats.Cycles))
		}
		// A flip in the last entry of the last unit: outside every window
		// unless the benchmark fills the structure, so only the fault
		// itself tells the pages about it.
		f := &gpu.Fault{Structure: st, Unit: chip.Units - 1, Entry: size - 1, Bit: 1, Cycle: last}
		_ = rep.inject(ladder, f, last, 4*stats.Cycles)
		clean("a flip at the end of the structure", last)
		// A watchdog abort in mid-launch leaves blocks resident.
		if err := rep.inject(ladder, nil, last, 3); !errors.Is(err, gpu.ErrWatchdog) {
			t.Fatalf("a 3-cycle watchdog from the rung at %d: got %v", last, err)
		}
		clean("a watchdog abort", ladder[0].Cycle())
		// A full replay: no rung at or below cycle 0.
		f = &gpu.Fault{Structure: st, Unit: 0, Entry: rng.Intn(size), Bit: 7, Cycle: 0}
		_ = rep.inject(ladder, f, 0, 4*stats.Cycles)
		clean("a full replay", last)
	}
	// Capture on a device with that history: its rungs must be the first
	// device's, and the first device must take them.
	again, out, st := rep.golden(interval)
	if len(again) != len(ladder) || !bytes.Equal(out, want) || st != stats {
		t.Fatalf("the used replica's fault-free run differs from the fresh device's")
	}
	for i, s := range again {
		if err := ref.inject([]gpu.Snapshot{s}, nil, s.Cycle(), 0); err != nil {
			t.Fatalf("resume from the used replica's rung %d: %v", i, err)
		}
		if got := ref.outputs(); !bytes.Equal(got, want) || ref.d.Stats() != stats {
			t.Fatalf("resume from the used replica's rung %d ends differently from the uninterrupted run", i)
		}
	}
}

// TestPagedEqualsFlat is the proof that unit state on copy-on-write
// pages is the flat deep copy it replaced: both mini chips × the ten
// benchmarks × both structures on reused replicas, and outside -short
// one pair on each of the two chips with the largest structures.
func TestPagedEqualsFlat(t *testing.T) {
	pairs := map[*chips.Chip][]*workloads.Benchmark{
		chips.MiniNVIDIA(): workloads.All(),
		chips.MiniAMD():    workloads.All(),
	}
	if !testing.Short() {
		mm, err := workloads.ByName("matrixMul")
		if err != nil {
			t.Fatal(err)
		}
		pairs[chips.HDRadeon7970()] = []*workloads.Benchmark{mm}
		pairs[chips.GeForceGTX480()] = []*workloads.Benchmark{mm}
	}
	captures, restores := simt.PageChecks.Captures.Load(), simt.PageChecks.Restores.Load()
	for chip, benches := range pairs {
		for _, bench := range benches {
			t.Run(chip.Name+"/"+bench.Name, func(t *testing.T) { pagedPair(t, chip, bench) })
		}
	}
	captures, restores = simt.PageChecks.Captures.Load()-captures, simt.PageChecks.Restores.Load()-restores
	if captures < 20*12*2 || restores < 20*40*2 {
		t.Fatalf("the page check saw %d unit captures and %d unit restores: the matrix did not run under it", captures, restores)
	}
}

// TestResetByPage: after a faulted run Reset leaves every entry of both
// structures zero — a flipped entry no block ever owned included — and a
// second Reset has nothing left to touch: a value planted behind the
// pages' back survives it.
func TestResetByPage(t *testing.T) {
	forVendors(t, func(t *testing.T, v vendor) {
		k := v.mustAssemble(t, v.pinSrc)
		d := v.mustNew(t, v.mini())
		regs, local := simt.Storage(d)
		for _, f := range append(unallocatedFaults[:2:2],
			gpu.Fault{Structure: gpu.RegisterFile, Unit: 0, Entry: 3, Bit: 2, Cycle: 50},
			gpu.Fault{Structure: gpu.LocalMemory, Unit: 0, Entry: 3, Bit: 2, Cycle: 50}) {
			d.InjectFault(&f)
			d.SetWatchdog(100_000)
			_, _ = v.pinDrive(d, k) // however the faulted run ends
			d.Reset()
			for u := range regs {
				for i, x := range regs[u] {
					if x != 0 {
						t.Fatalf("%v: unit %d register %d is %#x after Reset", f, u, i, x)
					}
				}
				for i, x := range local[u] {
					if x != 0 {
						t.Fatalf("%v: unit %d local byte %d is %#x after Reset", f, u, i, x)
					}
				}
			}
		}
		regs[0][5], local[0][5] = 0xdead, 0xad
		d.Reset()
		if regs[0][5] != 0xdead || local[0][5] != 0xad {
			t.Fatal("a second Reset cleared pages that were already the zero page")
		}
		regs[0][5], local[0][5] = 0, 0
	})
}
