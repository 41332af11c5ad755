package ace

import (
	"strings"
	"testing"

	"repro/internal/chips"
	"repro/internal/devices"
	"repro/internal/gpu"
	"repro/internal/workloads"
)

// recorderOf builds a recorder for a geometry of its own.
func recorderOf(units, regs, local int) *Recorder {
	return &Recorder{newTrack(units, regs), newTrack(units, local)}
}

// wantSums checks a track's sums and counts.
func wantSums(t *testing.T, tr *track, live, ace, stray, undefined int64) {
	t.Helper()
	if tr.live != live || tr.ace != ace || tr.stray != stray || tr.undefined != undefined {
		t.Fatalf("live=%d ace=%d stray=%d undefined=%d, want %d/%d/%d/%d",
			tr.live, tr.ace, tr.stray, tr.undefined, live, ace, stray, undefined)
	}
}

// wantRefused checks that Measure's error path refuses the track.
func wantRefused(t *testing.T, tr *track, why string) {
	t.Helper()
	if _, err := tr.entryCycles(gpu.RegisterFile); err == nil || !strings.Contains(err.Error(), why) {
		t.Fatalf("entryCycles error %v, want one saying %q", err, why)
	}
}

func TestIntervalClassification(t *testing.T) {
	r := recorderOf(1, 4, 4)
	// Allocate entries 0..3 at cycle 0.
	r.RegAlloc(0, 0, 4, 0)
	// Entry 0: W@10 R@20 R@25 W@30 R@40 -> ACE = 10+5+10 = 25.
	r.RegAccess(0, 0, 1, 10, true)
	r.RegAccess(0, 0, 1, 20, false)
	r.RegAccess(0, 0, 1, 25, false)
	r.RegAccess(0, 0, 1, 30, true)
	r.RegAccess(0, 0, 1, 40, false)
	// Entry 1: W@5 W@15 (write-write, tail) -> ACE = 0.
	r.RegAccess(0, 1, 1, 5, true)
	r.RegAccess(0, 1, 1, 15, true)
	if n, err := r[gpu.RegisterFile].entryCycles(gpu.RegisterFile); n != 25 || err != nil {
		t.Fatalf("ACE entry-cycles = %v, %v; want 25", n, err)
	}
	// Entry 2: R@10 before any write -> undefined read: live [0, 10], no
	// ACE, and the run is refused.
	r.RegAccess(0, 2, 1, 10, false)
	r.RegFree(0, 0, 4, 50)
	wantSums(t, &r[gpu.RegisterFile], 25+11, 25, 0, 1)
	wantRefused(t, &r[gpu.RegisterFile], "not written since its allocation")
	lt := r.Liveness()[gpu.RegisterFile]
	if live, ace := lt.EntryCycles(); live != 36 || ace != 25 {
		t.Fatalf("table entry-cycles live=%d ace=%d, want 36 and 25", live, ace)
	}
	// Entry 0's spans are [11, 25] and [31, 40]; entry 1 has none.
	for _, c := range []struct {
		entry int
		cycle int64
		dead  bool
	}{{0, 10, true}, {0, 11, false}, {0, 25, false}, {0, 26, true}, {0, 31, false}, {0, 40, false}, {0, 41, true}, {1, 10, true}, {2, 0, false}, {2, 11, true}} {
		f := gpu.Fault{Structure: gpu.RegisterFile, Entry: c.entry, Cycle: c.cycle}
		if r.Liveness().Dead(f) != c.dead {
			t.Errorf("entry %d cycle %d: dead=%v, want %v", c.entry, c.cycle, !c.dead, c.dead)
		}
	}
}

func TestAccessOutsideAllocationIgnored(t *testing.T) {
	r := recorderOf(1, 4, 4)
	r.RegAccess(0, 0, 1, 10, true)
	r.RegAccess(0, 0, 1, 20, false) // no allocation bracket
	// Live all the same: brackets never change a span.
	wantSums(t, &r[gpu.RegisterFile], 10, 0, 2, 0)
	wantRefused(t, &r[gpu.RegisterFile], "outside an allocation bracket")
}

func TestReallocationResetsDefined(t *testing.T) {
	r := recorderOf(1, 2, 2)
	r.RegAlloc(0, 0, 2, 0)
	r.RegAccess(0, 0, 1, 10, true)
	r.RegFree(0, 0, 2, 20)
	// New owner reads before writing: must not count the stale value.
	r.RegAlloc(0, 0, 2, 30)
	r.RegAccess(0, 0, 1, 40, false)
	wantSums(t, &r[gpu.RegisterFile], 30, 0, 0, 1)
	wantRefused(t, &r[gpu.RegisterFile], "not written since its allocation")
}

func TestLocalAccessSpansBytes(t *testing.T) {
	r := recorderOf(1, 4, 16)
	r.LocalAlloc(0, 0, 16, 0)
	r.LocalAccess(0, 4, 4, 10, true)  // word write at offset 4
	r.LocalAccess(0, 4, 4, 30, false) // word read
	wantSums(t, &r[gpu.LocalMemory], 4*20, 4*20, 0, 0)
}

func TestMeasureOnRealRun(t *testing.T) {
	for _, benchName := range []string{"matrixMul", "reduction"} {
		b, err := workloads.ByName(benchName)
		if err != nil {
			t.Fatal(err)
		}
		for _, chip := range []*chips.Chip{chips.MiniNVIDIA(), chips.MiniAMD()} {
			d, err := devices.New(chip)
			if err != nil {
				t.Fatal(err)
			}
			hp, err := b.New(chip.Vendor)
			if err != nil {
				t.Fatal(err)
			}
			regAVF, localAVF, st, err := Measure(d, hp)
			if err != nil {
				t.Fatalf("%s on %s: %v", benchName, chip.Name, err)
			}
			if regAVF <= 0 || regAVF > 1 {
				t.Fatalf("%s on %s: register AVF %v implausible", benchName, chip.Name, regAVF)
			}
			if localAVF <= 0 || localAVF > 1 {
				t.Fatalf("%s on %s: local AVF %v implausible", benchName, chip.Name, localAVF)
			}
			if st.Cycles <= 0 {
				t.Fatalf("no cycles recorded")
			}
		}
	}
}

// TestRowsCarryTheTraffic: over the ten benchmarks on both mini chips,
// rows record at least 90 % of the register lane-accesses and every byte
// of every local access, all of which are words.
func TestRowsCarryTheTraffic(t *testing.T) {
	var lanes, onRows int64
	for _, chip := range []*chips.Chip{chips.MiniNVIDIA(), chips.MiniAMD()} {
		for _, b := range workloads.All() {
			d, err := devices.New(chip)
			if err != nil {
				t.Fatal(err)
			}
			hp, err := b.New(chip.Vendor)
			if err != nil {
				t.Fatal(err)
			}
			r := NewRecorder(d)
			d.SetTracer(r)
			if err := hp.Run(d); err != nil {
				t.Fatal(err)
			}
			regs, local := &r[gpu.RegisterFile], &r[gpu.LocalMemory]
			if local.onRows != local.lanes {
				t.Errorf("%s on %s: rows recorded %d of %d local byte accesses, want all", b.Name, chip.Name, local.onRows, local.lanes)
			}
			t.Logf("%-10s %-10s rows record %5.1f %% of %d register lane-accesses, %d of %d local byte accesses",
				chip.Name, b.Name, 100*float64(regs.onRows)/float64(regs.lanes), regs.lanes, local.onRows, local.lanes)
			lanes, onRows = lanes+regs.lanes, onRows+regs.onRows
		}
	}
	if onRows*10 < lanes*9 {
		t.Errorf("rows recorded %d of %d register lane-accesses, want at least 90 %%", onRows, lanes)
	}
}
