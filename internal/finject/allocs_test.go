package finject

import (
	"testing"

	"repro/internal/chips"
	"repro/internal/gpu"
	"repro/internal/workloads"
)

// TestInjectionAllocsBounded bounds the heap allocations of one
// injection campaign against a shared golden run. Unlike its wall time,
// a campaign's allocation count does not depend on the host, so a
// per-injection allocation creeping into the loop fails here on any
// machine.
func TestInjectionAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	bench, err := workloads.ByName("matrixMul")
	if err != nil {
		t.Fatal(err)
	}
	chip := chips.MiniNVIDIA()
	golden, err := NewGolden(chip, bench)
	if err != nil {
		t.Fatal(err)
	}
	c := Campaign{
		Chip: chip, Benchmark: bench, Structure: gpu.RegisterFile,
		Injections: 100, Seed: 11, Golden: golden,
		Policy: Config{Workers: 1},
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Run(c); err != nil {
			t.Fatal(err)
		}
	})
	// Measured at 425-426 before this test existed; the bound is 1.25x.
	const bound = 532
	if allocs > bound {
		t.Errorf("%.0f allocations per campaign, want at most %d", allocs, bound)
	}
}
