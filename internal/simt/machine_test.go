package simt_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/chips"
	"repro/internal/gpu"
	"repro/internal/simt"
)

// forVendors runs fn once per ISA plug-in.
func forVendors(t *testing.T, fn func(t *testing.T, v vendor)) {
	for _, v := range vendors {
		t.Run(v.name, func(t *testing.T) { fn(t, v) })
	}
}

func TestWatchdogFires(t *testing.T) {
	forVendors(t, func(t *testing.T, v vendor) {
		d := v.mustNew(t, v.mini())
		d.SetWatchdog(5000)
		err := d.Launch(gpu.LaunchSpec{Kernel: v.mustAssemble(t, v.spin), Grid: gpu.D1(1), Group: gpu.D1(32)})
		if err != gpu.ErrWatchdog {
			t.Fatalf("got %v, want ErrWatchdog", err)
		}
	})
}

// localLog records the local-memory events of a launch.
type localLog struct {
	offsets []int
	writes  int
}

func (l *localLog) LocalAccess(_, offset, _ int, _ int64, write bool) {
	l.offsets = append(l.offsets, offset)
	if write {
		l.writes++
	}
}

func (*localLog) RegAccess(int, int, uint64, int64, bool) {}
func (*localLog) RegAlloc(int, int, int, int64)           {}
func (*localLog) RegFree(int, int, int, int64)            {}
func (*localLog) LocalAlloc(int, int, int, int64)         {}
func (*localLog) LocalFree(int, int, int, int64)          {}

// TestFailingLaneStopsTheAccess: a memory instruction whose lane k has a
// bad address fails the launch with an error naming the ISA, the kernel
// and the instruction, after lanes 0..k-1 and before lane k: the local
// store traces exactly k accesses, and the global store leaves exactly k
// words written.
func TestFailingLaneStopsTheAccess(t *testing.T) {
	named := func(t *testing.T, v vendor, err error, kernel string, pc int) {
		t.Helper()
		if want := fmt.Sprintf("%s: kernel %s PC %d: ", v.name, kernel, pc); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("got %v, want an error starting %q", err, want)
		}
	}
	forVendors(t, func(t *testing.T, v vendor) {
		group := gpu.D1(v.mini().WarpWidth)
		t.Run("local", func(t *testing.T) {
			const k = 16 // the first lane beyond the 64-byte window
			d := v.mustNew(t, v.mini())
			log := &localLog{}
			d.SetTracer(log)
			err := d.Launch(gpu.LaunchSpec{Kernel: v.mustAssemble(t, v.localFault), Grid: gpu.D1(1), Group: group})
			named(t, v, err, "localFault", v.localFaultPC)
			if len(log.offsets) != k || log.writes != k {
				t.Fatalf("traced %d local accesses (%d writes), want %d stores", len(log.offsets), log.writes, k)
			}
			for l, off := range log.offsets {
				if off != 4*l {
					t.Fatalf("local access %d at byte %d, want %d", l, off, 4*l)
				}
			}
		})
		t.Run("global", func(t *testing.T) {
			const k = 8 // the first lane whose address is misaligned
			d := v.mustNew(t, v.mini())
			n := v.mini().WarpWidth
			buf, err := d.Mem().Alloc(8 * n)
			if err != nil {
				t.Fatal(err)
			}
			err = d.Launch(gpu.LaunchSpec{Kernel: v.mustAssemble(t, v.globalFault), Grid: gpu.D1(1), Group: group, Args: []uint32{buf}})
			named(t, v, err, "globalFault", v.globalFaultPC)
			for l := 0; l < 2*n; l++ {
				got, err := d.Mem().Load32(buf + uint32(4*l))
				if err != nil {
					t.Fatal(err)
				}
				if want := uint32(l); l >= k {
					want = 0
					if got != want {
						t.Fatalf("word %d = %d after the failing lane %d, want it unwritten", l, got, k)
					}
				} else if got != want {
					t.Fatalf("word %d = %d, want lane %d's store", l, got, l)
				}
			}
		})
	})
}

func TestUnfitKernelRejected(t *testing.T) {
	forVendors(t, func(t *testing.T, v vendor) {
		d := v.mustNew(t, v.mini())
		err := d.Launch(gpu.LaunchSpec{Kernel: v.mustAssemble(t, v.fat), Grid: gpu.D1(1), Group: gpu.D1(32)})
		if err == nil || !strings.HasPrefix(err.Error(), v.name+": ") {
			t.Fatalf("64 KiB of local memory on a mini chip: got %v, want a %s residency error", err, v.name)
		}
	})
}

func TestForeignKernelRejected(t *testing.T) {
	forVendors(t, func(t *testing.T, v vendor) {
		other := v.other()
		d := v.mustNew(t, v.mini())
		err := d.Launch(gpu.LaunchSpec{Kernel: other.mustAssemble(t, other.trivial), Grid: gpu.D1(1), Group: gpu.D1(32)})
		if err == nil || !strings.HasPrefix(err.Error(), v.name+": ") {
			t.Fatalf("%s kernel on %s: got %v", other.name, v.name, err)
		}
		if _, err := v.newDev(other.mini()); err == nil || !strings.HasPrefix(err.Error(), v.name+": ") {
			t.Fatalf("%s chip accepted by %s.New: %v", other.name, v.name, err)
		}
	})
}

func TestResetRestoresPowerOn(t *testing.T) {
	forVendors(t, func(t *testing.T, v vendor) {
		d := v.mustNew(t, v.mini())
		k := v.mustAssemble(t, v.trivial)
		if err := d.Launch(gpu.LaunchSpec{Kernel: k, Grid: gpu.D1(1), Group: gpu.D1(32)}); err != nil {
			t.Fatal(err)
		}
		d.SetCheckpointHook(0, func(gpu.Snapshot) int64 {
			t.Error("checkpoint hook survived Reset")
			return -1
		})
		d.Reset()
		if st := d.Stats(); st != (gpu.RunStats{}) {
			t.Fatalf("stats survive reset: %+v", st)
		}
		if err := d.Launch(gpu.LaunchSpec{Kernel: k, Grid: gpu.D1(1), Group: gpu.D1(32)}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestGTOWakeUp is the regression test for the greedy-then-oldest
// wake-up bug: a greedy wave blocked on a global load was skipped by both
// the greedy branch and the fallback scan, so its wake-up never reached
// the launch loop. The grid fills unit 0 with short groups and leaves the
// loading group alone on unit 1: once unit 0 had drained, the launch died
// with a spurious barrier-starvation deadlock.
func TestGTOWakeUp(t *testing.T) {
	forVendors(t, func(t *testing.T, v vendor) {
		k := v.mustAssemble(t, v.gtoSrc)
		for _, pol := range []chips.SchedulerPolicy{chips.SchedRR, chips.SchedGTO} {
			chip := v.mini()
			chip.Scheduler = pol
			last := min(chip.MaxGroupsPerUnit, chip.MaxWarpsPerUnit)
			d := v.mustNew(t, chip)
			buf, err := d.Mem().AllocWords([]uint32{41})
			if err != nil {
				t.Fatal(err)
			}
			err = d.Launch(gpu.LaunchSpec{Kernel: k, Grid: gpu.D1(last + 1), Group: gpu.D1(32),
				Args: []uint32{buf, uint32(last)}})
			if err != nil {
				t.Fatalf("%v launch: %v", pol, err)
			}
			if got, _ := d.Mem().Load32(buf); got != 42 {
				t.Fatalf("%v: result %d, want 42", pol, got)
			}
		}
	})
}

// pinOne launches one group of the pin kernel — every unit but the first
// stays idle — and returns the output bytes.
func (v vendor) pinOne(t *testing.T, d gpu.Device, k gpu.Kernel) []byte {
	t.Helper()
	n := v.pinGroup
	in, _ := d.Mem().AllocWords(make([]uint32, n))
	out, _ := d.Mem().Alloc(4 * n)
	if err := d.Launch(gpu.LaunchSpec{Kernel: k, Grid: gpu.D1(1), Group: gpu.D1(n),
		Args: []uint32{in, out, uint32(n)}}); err != nil {
		t.Fatal(err)
	}
	bs, err := d.Mem().ReadBytes(out, 4*n)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

// unallocatedFaults flip entries no block of a one-group launch owns, or
// that do not exist.
var unallocatedFaults = []gpu.Fault{
	{Structure: gpu.RegisterFile, Unit: 1, Entry: 100, Bit: 15, Cycle: 50},
	{Structure: gpu.LocalMemory, Unit: 1, Entry: 100, Bit: 3, Cycle: 50},
	{Structure: gpu.RegisterFile, Unit: 99, Entry: 0, Cycle: 50},
	{Structure: gpu.RegisterFile, Unit: 0, Entry: 1 << 30, Cycle: 50},
}

// TestFaultInUnallocatedSpaceIsMasked: a flip outside every allocation
// changes nothing, on a fresh device and on one device taken through
// all the flips — by Reset, and by restoring a snapshot of before the
// flip, which has to put the flipped entry back although no block's
// window ever covered it.
func TestFaultInUnallocatedSpaceIsMasked(t *testing.T) {
	forVendors(t, func(t *testing.T, v vendor) {
		k := v.mustAssemble(t, v.pinSrc)
		golden := v.pinOne(t, v.mustNew(t, v.mini()), k)
		reused := v.mustNew(t, v.mini())
		before := reused.Snapshot()
		regs, local := simt.Storage(reused)
		for _, f := range unallocatedFaults {
			fresh := v.mustNew(t, v.mini())
			fresh.InjectFault(&f)
			if !bytes.Equal(golden, v.pinOne(t, fresh, k)) {
				t.Fatalf("flip outside any allocation changed the output: %v", f)
			}
			reused.InjectFault(&f)
			if !bytes.Equal(golden, v.pinOne(t, reused, k)) {
				t.Fatalf("flip outside any allocation changed the output of the reused device: %v", f)
			}
			if f.Unit == 1 && regs[1][100] == 0 && local[1][100] == 0 {
				t.Fatalf("%v did not land", f)
			}
			if f.Structure == gpu.RegisterFile {
				reused.Reset()
			} else if err := reused.Restore(before); err != nil {
				t.Fatal(err)
			}
			if regs[1][100] != 0 || local[1][100] != 0 {
				t.Fatalf("%v survives into the next run", f)
			}
		}
	})
}

// TestRestoreContract checks the documented refusals: a snapshot of the
// other vendor, of a different unit count, or of a different register
// file on a unit other than the first fails to restore and leaves the
// device usable.
func TestRestoreContract(t *testing.T) {
	forVendors(t, func(t *testing.T, v vendor) {
		other := v.other()
		k := v.mustAssemble(t, v.pinSrc)
		_, foreign, _ := other.pinCapture(t)
		_, native, _ := v.pinCapture(t)

		moreUnits := v.tiny()
		moreUnits.Units = 3
		cases := map[string]struct {
			chip *chips.Chip
			snap gpu.Snapshot
		}{
			"other vendor":    {v.tiny(), foreign},
			"more units":      {moreUnits, native},
			"other chip size": {v.mini(), native},
		}
		for name, c := range cases {
			d := v.mustNew(t, c.chip)
			if err := d.Restore(c.snap); err == nil || !strings.HasPrefix(err.Error(), v.name+": ") {
				t.Fatalf("%s: Restore returned %v, want a %s error", name, err, v.name)
			}
			if _, err := v.pinDrive(d, k); err != nil {
				t.Fatalf("%s: device unusable after the refused restore: %v", name, err)
			}
		}
	})
}
