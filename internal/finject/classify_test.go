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

// regEntry is the register-file entry of register r of lane l in the
// first warp of unit 0, whose window starts at entry 0: a warp register
// is WarpWidth contiguous entries.
func regEntry(chip *chips.Chip, r, l int) int { return r*chip.WarpWidth + l }

// firstWithOutcome flips bit of register r of thread 0 on the mini
// NVIDIA chip at every third cycle of bench's golden run, under a
// watchdog of slack times the golden's cycles plus pad, and returns the
// cost of the first injection that classifies as want.
func firstWithOutcome(t *testing.T, bench *workloads.Benchmark, r int, bit uint, slack, pad int64, want gpu.Outcome) classifyCost {
	t.Helper()
	chip := chips.MiniNVIDIA()
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
	for c := int64(1); c < g.cycles; c += 3 {
		f := gpu.Fault{Structure: gpu.RegisterFile, Unit: 0, Entry: regEntry(chip, r, 0), Bit: bit, Cycle: c}
		if o, _, cost := classify(d, hp, g, nil, f, g.cycles*slack+pad); o == want {
			return cost
		}
	}
	t.Fatalf("%s: no flip of R%d bit %d of thread 0 classified as %v", bench.Name, r, bit, want)
	return classifyCost{}
}

// TestClassifyProducesDUE scans injection cycles on the pointer register
// until one classifies as DUE (wild access aborts the launch). R1 of
// thread 0 holds the pointer; bit 25 is beyond the 4MB device memory, so
// a live hit must fault.
func TestClassifyProducesDUE(t *testing.T) {
	firstWithOutcome(t, synthBenchmark("duebait", dueProg), 1, 25, 20, 10000, gpu.OutcomeDUE)
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
// one classifies as a watchdog timeout. R2 of thread 0 holds the loop
// bound; setting bit 30 raises it to ~1e9 iterations, far past the
// watchdog.
func TestClassifyProducesTimeout(t *testing.T) {
	firstWithOutcome(t, synthBenchmark("hangbait", loopProg), 2, 30, 4, 0, gpu.OutcomeTimeout)
}

// TestFailedRunsCountTheirCycles: a run that ends in a DUE or a Timeout
// simulated cycles before it failed, and classify's cost accounting
// counts them.
func TestFailedRunsCountTheirCycles(t *testing.T) {
	due := firstWithOutcome(t, synthBenchmark("duebait", dueProg), 1, 25, 20, 10000, gpu.OutcomeDUE)
	hang := firstWithOutcome(t, synthBenchmark("hangbait", loopProg), 2, 30, 4, 0, gpu.OutcomeTimeout)
	if due.simCycles <= 0 || hang.simCycles <= 0 {
		t.Fatalf("simulated cycles: DUE %d, Timeout %d; want both > 0", due.simCycles, hang.simCycles)
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
	// Flip R1 of thread 0 in the last cycle: nothing can read it
	// afterwards.
	f := gpu.Fault{Structure: gpu.RegisterFile, Unit: 0, Entry: regEntry(chip, 1, 0), Bit: 25, Cycle: g.cycles - 1}
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

// TestOwnLadderAccounting meters the two replay paths on a golden's own
// ladder: every simulated injection with a rung at or below its fault
// cycle restores that rung, counted once in fi_inject_ckpt_restores_total
// and never in fi_inject_full_replays_total, and fi_inject_ff_cycles_total
// grows by exactly the cycles of the rungs restored. Each run replays
// some injections in full (those before the first rung), so the test
// sees both paths on both vendors.
func TestOwnLadderAccounting(t *testing.T) {
	mm, err := workloads.ByName("matrixMul")
	if err != nil {
		t.Fatal(err)
	}
	for _, chip := range []*chips.Chip{chips.MiniNVIDIA(), chips.MiniAMD()} {
		g, err := NewGolden(chip, mm)
		if err != nil {
			t.Fatal(err)
		}
		// Unpruned: this test meters the simulate path, and most of these
		// faults never reach it otherwise.
		c := Campaign{Chip: chip, Benchmark: mm, Structure: gpu.RegisterFile, Injections: 60, Seed: 1, Golden: g, detail: true, unpruned: true}
		restores, replays, ff := telemetry.CkptRestores.Value(), telemetry.FullReplays.Value(), telemetry.FastForwardCycles.Value()
		res, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		var wantRestores, wantReplays, wantFF int64
		for _, r := range res.Records {
			if snap := latestBelow(g.ladder, r.Fault.Cycle); snap != nil {
				wantRestores++
				wantFF += snap.Cycle()
			} else {
				wantReplays++
			}
		}
		if wantRestores == 0 || wantReplays == 0 {
			t.Fatalf("%s: %d injections with a rung, %d without: the test needs both", chip.Name, wantRestores, wantReplays)
		}
		if d := telemetry.CkptRestores.Value() - restores; d != wantRestores {
			t.Errorf("%s: %d checkpoint restores, want %d", chip.Name, d, wantRestores)
		}
		if d := telemetry.FullReplays.Value() - replays; d != wantReplays {
			t.Errorf("%s: %d full replays, want %d", chip.Name, d, wantReplays)
		}
		if d := telemetry.FastForwardCycles.Value() - ff; d != wantFF {
			t.Errorf("%s: %d fast-forwarded cycles, want %d", chip.Name, d, wantFF)
		}
	}
}
