package finject

import (
	"testing"

	"repro/internal/chips"
	"repro/internal/devices"
	"repro/internal/gpu"
	"repro/internal/sass"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// dueProg loads through a pointer register after a long delay chain, so
// that a bit flip in the pointer's high bits produces a wild access.
var dueProg = sass.MustAssemble(`
.kernel duebait
    MOV R1, c[0]
    MOV R2, 0
wait:
    IADD R2, R2, 1
    ISETP.LT P0, R2, 200
@P0 BRA wait
    LDG R3, [R1]
    IADD R3, R3, 1
    STG [R1], R3
    EXIT
`)

// synthBenchmark wraps a single fixed launch as a workloads.Benchmark so
// the campaign engine can drive it.
func synthBenchmark(name string, prog *sass.Program) *workloads.Benchmark {
	return &workloads.Benchmark{
		Name: name,
		New: func(v gpu.Vendor) (*gpu.HostProgram, error) {
			var out uint32
			hp := &gpu.HostProgram{Name: name}
			hp.Run = func(d gpu.Device) error {
				var err error
				out, err = d.Mem().Alloc(64)
				if err != nil {
					return err
				}
				return d.Launch(gpu.LaunchSpec{
					Kernel: prog, Grid: gpu.D1(1), Group: gpu.D1(32),
					Args: []uint32{out, 0},
				})
			}
			hp.Outputs = func() []gpu.Region { return []gpu.Region{{Addr: out, Size: 64}} }
			hp.Verify = func(d gpu.Device) error { return nil }
			return hp, nil
		},
	}
}

// TestClassifyProducesDUE scans injection cycles on the pointer register
// until one classifies as DUE (wild access aborts the launch).
func TestClassifyProducesDUE(t *testing.T) {
	chip := chips.MiniNVIDIA()
	bench := synthBenchmark("duebait", dueProg)
	g, err := runGolden(chip, bench, false)
	if err != nil {
		t.Fatal(err)
	}
	d, err := devices.New(chip)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := bench.New(chip.Vendor)
	if err != nil {
		t.Fatal(err)
	}
	sawDUE := false
	for c := int64(1); c < g.cycles && !sawDUE; c += 3 {
		// R1 of thread 0 holds the pointer; flip bit 25 (beyond the 4MB
		// device memory) so a live hit must fault.
		f := gpu.Fault{Structure: gpu.RegisterFile, Unit: 0, Entry: 1, Bit: 25, Cycle: c}
		if o, _, _ := classify(d, hp, g, nil, f, g.cycles*20+10000); o == gpu.OutcomeDUE {
			sawDUE = true
		}
	}
	if !sawDUE {
		t.Fatal("no injection on the pointer register produced a DUE")
	}
}

// loopProg counts to a bound held in a register; flipping a high bit of
// the counter mid-loop makes the loop effectively unbounded.
var loopProg = sass.MustAssemble(`
.kernel hangbait
    MOV R1, 0
    MOV R2, 400
loop:
    IADD R1, R1, 1
    ISETP.LT P0, R1, R2
@P0 BRA loop
    MOV R3, c[0]
    STG [R3], R1
    EXIT
`)

// TestClassifyProducesTimeout scans injections on the loop bound until
// one classifies as a watchdog timeout.
func TestClassifyProducesTimeout(t *testing.T) {
	chip := chips.MiniNVIDIA()
	bench := synthBenchmark("hangbait", loopProg)
	g, err := runGolden(chip, bench, false)
	if err != nil {
		t.Fatal(err)
	}
	d, err := devices.New(chip)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := bench.New(chip.Vendor)
	if err != nil {
		t.Fatal(err)
	}
	sawTimeout := false
	for c := int64(1); c < g.cycles && !sawTimeout; c += 3 {
		// R2 of thread 0 holds the loop bound; setting bit 30 raises it
		// to ~1e9 iterations, far past the watchdog.
		f := gpu.Fault{Structure: gpu.RegisterFile, Unit: 0, Entry: 2, Bit: 30, Cycle: c}
		if o, _, _ := classify(d, hp, g, nil, f, g.cycles*4); o == gpu.OutcomeTimeout {
			sawTimeout = true
		}
	}
	if !sawTimeout {
		t.Fatal("no injection on the loop bound produced a timeout")
	}
}

// TestClassifyMasked: a flip after the last use of a register must be
// masked.
func TestClassifyMaskedTail(t *testing.T) {
	chip := chips.MiniNVIDIA()
	bench := synthBenchmark("duebait", dueProg)
	g, err := runGolden(chip, bench, false)
	if err != nil {
		t.Fatal(err)
	}
	d, err := devices.New(chip)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := bench.New(chip.Vendor)
	if err != nil {
		t.Fatal(err)
	}
	// Flip an entry in the last cycle: nothing can read it afterwards.
	f := gpu.Fault{Structure: gpu.RegisterFile, Unit: 0, Entry: 1, Bit: 25, Cycle: g.cycles - 1}
	if got, corrupt, _ := classify(d, hp, g, nil, f, g.cycles*20); got != gpu.OutcomeMasked || corrupt != 0 {
		t.Fatalf("tail flip classified as %v (corrupt=%d), want masked", got, corrupt)
	}
}

// TestLocalMemoryFaultsManifest runs a small local-memory campaign on a
// shared-memory benchmark and checks that faults both manifest and mask.
func TestLocalMemoryFaultsManifest(t *testing.T) {
	b, err := workloads.ByName("transpose")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Campaign{
		Chip: chips.MiniNVIDIA(), Benchmark: b,
		Structure: gpu.LocalMemory, Injections: 300, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AVF() <= 0 {
		t.Fatal("no local-memory fault manifested in transpose")
	}
	if res.AVF() >= 1 {
		t.Fatal("no local-memory fault was masked")
	}
}

// TestForeignLadderNeverChangesOutcomes: an accelerator must never change
// an outcome. A ladder captured from another benchmark on the same chip
// restores fine and then fails the resident-block check when the launch
// resumes. That error used to come back from hp.Run and count as DUE: 40
// vectoradd faults that are all Masked classified as 40 DUEs. It must
// instead be redone and accounted as a full replay.
func TestForeignLadderNeverChangesOutcomes(t *testing.T) {
	vec, err := workloads.ByName("vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	mm, err := workloads.ByName("matrixMul")
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for _, chip := range []*chips.Chip{chips.MiniNVIDIA(), chips.MiniAMD()} {
		own, err := NewGolden(chip, vec)
		if err != nil {
			t.Fatal(err)
		}
		// A tight interval, so the short mini-chip runs get rungs at all.
		ladder := captureLadder(t, chip, mm, 64, false)
		if len(ladder) == 0 || ladder[0].Cycle() >= own.cycles/2 {
			t.Fatalf("%s: the foreign ladder has no rung early enough to be restored", chip.Name)
		}
		// Unpruned: this test meters the simulate path, and most of these
		// faults never reach it otherwise.
		c := Campaign{Chip: chip, Benchmark: vec, Structure: gpu.RegisterFile, Injections: n, Seed: 1, Golden: own, unpruned: true}
		want, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		own.ladder = ladder
		replays := telemetry.FullReplays.Value()
		got, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if got.Outcomes != want.Outcomes {
			t.Errorf("%s: outcomes %v with a foreign ladder, %v with its own", chip.Name, got.Outcomes, want.Outcomes)
		}
		if d := telemetry.FullReplays.Value() - replays; d != n {
			t.Errorf("%s: %d of %d injections accounted as full replays", chip.Name, d, n)
		}
	}
}
