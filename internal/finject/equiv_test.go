package finject

import (
	"fmt"
	"testing"

	"repro/internal/chips"
	"repro/internal/gpu"
	"repro/internal/workloads"
)

// TestCheckpointEquivalenceMatrix is the differential proof that
// checkpointed fast-forward is invisible in results: for every benchmark
// of the suite, on both vendors' simulators, for every structure the
// benchmark exercises, a campaign executed through the checkpoint ladder
// must be byte-identical to the same campaign replayed in full — same
// outcome counts, same golden statistics, and the same per-injection
// record stream (fault site, outcome, SDC severity, in order). The
// comparison itself lives in CheckpointEquivalence so future engine
// changes rerun exactly this proof.
func TestCheckpointEquivalenceMatrix(t *testing.T) {
	const n = 40
	for _, chip := range []*chips.Chip{chips.MiniNVIDIA(), chips.MiniAMD()} {
		for _, bench := range workloads.All() {
			golden, err := NewGolden(chip, bench)
			if err != nil {
				t.Fatalf("%s/%s: golden: %v", chip.Name, bench.Name, err)
			}
			structures := []gpu.Structure{gpu.RegisterFile}
			if bench.UsesLocal {
				structures = append(structures, gpu.LocalMemory)
			}
			for _, st := range structures {
				t.Run(fmt.Sprintf("%s/%s/%s", chip.Vendor, bench.Name, st), func(t *testing.T) {
					seed := CellSeed(chip.Name, bench.Name, st)
					if _, err := CheckpointEquivalence(Campaign{
						Chip: chip, Benchmark: bench, Structure: st,
						Injections: n, Seed: seed, Golden: golden,
					}); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// CellSeed derives a distinct test seed per matrix cell so every cell
// draws its own fault sample.
func CellSeed(chip, bench string, st gpu.Structure) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, s := range []string{chip, bench} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 0x100000001b3
		}
	}
	return (h ^ uint64(st)) * 0x100000001b3
}

// TestCheckpointEquivalenceAdaptive pins the fast-forward engine under
// the adaptive stopping rule: early stopping depends only on outcome
// counts, which checkpointing must not perturb, so the realized sample
// size and the record prefix must match exactly.
func TestCheckpointEquivalenceAdaptive(t *testing.T) {
	bench, err := workloads.ByName("matrixMul")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CheckpointEquivalence(Campaign{
		Chip: chips.MiniNVIDIA(), Benchmark: bench, Structure: gpu.RegisterFile,
		Injections: 800, Seed: 23,
		Policy: Config{Margin: 0.08},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointIntervalOverrideEquivalence pins an explicit -checkpoint
// interval: a ladder at a fixed, deliberately odd spacing must still be
// invisible in results.
func TestCheckpointIntervalOverrideEquivalence(t *testing.T) {
	bench, err := workloads.ByName("gaussian")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CheckpointEquivalence(Campaign{
		Chip: chips.MiniNVIDIA(), Benchmark: bench, Structure: gpu.RegisterFile,
		Injections: 80, Seed: 31,
		Policy: Config{Checkpoint: &Checkpoint{Interval: 777}},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestLadderShape sanity-checks the auto-sized ladder: ascending capture
// cycles within the golden run, and a rung count within the cap.
func TestLadderShape(t *testing.T) {
	bench, err := workloads.ByName("matrixMul")
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGolden(chips.MiniNVIDIA(), bench)
	if err != nil {
		t.Fatal(err)
	}
	cycles := g.CheckpointCycles()
	if len(cycles) == 0 {
		t.Fatalf("no checkpoints captured for a %d-cycle golden run", g.Cycles())
	}
	if len(cycles) > maxLadderSnapshots {
		t.Fatalf("ladder has %d rungs, cap is %d", len(cycles), maxLadderSnapshots)
	}
	for i := 1; i < len(cycles); i++ {
		if cycles[i] <= cycles[i-1] {
			t.Fatalf("ladder cycles not ascending: %v", cycles)
		}
	}
	if last := cycles[len(cycles)-1]; last >= g.Cycles() {
		t.Fatalf("last checkpoint at cycle %d is beyond the golden run (%d cycles)", last, g.Cycles())
	}
}
