package finject

import (
	"testing"

	"repro/internal/chips"
	"repro/internal/gpu"
	"repro/internal/workloads"
)

func testCampaign(t *testing.T, chip *chips.Chip, benchName string, st gpu.Structure, n int) *Result {
	t.Helper()
	b, err := workloads.ByName(benchName)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Campaign{
		Chip: chip, Benchmark: b, Structure: st,
		Injections: n, Seed: 42,
	})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	return res
}

func TestCampaignBasics(t *testing.T) {
	res := testCampaign(t, chips.MiniNVIDIA(), "vectoradd", gpu.RegisterFile, 100)
	total := 0
	for _, c := range res.Outcomes {
		total += c
	}
	if total != 100 || res.Injections != 100 {
		t.Fatalf("outcome counts %v don't sum to N", res.Outcomes)
	}
	if res.AVF() < 0 || res.AVF() > 1 {
		t.Fatalf("AVF %v out of range", res.AVF())
	}
	if res.Occupancy <= 0 || res.Occupancy > 1 {
		t.Fatalf("occupancy %v out of range", res.Occupancy)
	}
	lo, hi, err := res.AVFInterval(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if lo > res.AVF() || hi < res.AVF() {
		t.Fatalf("interval [%v,%v] excludes point estimate %v", lo, hi, res.AVF())
	}
}

// TestAVFCountsEveryUnmaskedOutcome: SDC, DUE and Timeout all count
// against the AVF, its interval and the half-width the adaptive rule
// reads; Masked does not, and no injection is an AVF of 0.
func TestAVFCountsEveryUnmaskedOutcome(t *testing.T) {
	res := &Result{Outcomes: [gpu.NumOutcomes]int{5, 1, 2, 2}, Injections: 10}
	if res.AVF() != 0.5 {
		t.Fatalf("AVF %v of 5 failures in 10, want 0.5", res.AVF())
	}
	lo, hi, err := res.AVFInterval(0.95)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := res.HalfWidth(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if lo >= 0.5 || hi <= 0.5 || hw != (hi-lo)/2 {
		t.Fatalf("interval [%v,%v] with half-width %v around 0.5", lo, hi, hw)
	}
	if (&Result{}).AVF() != 0 {
		t.Fatal("a result with no injection has a nonzero AVF")
	}
}

func TestCampaignDeterministic(t *testing.T) {
	a := testCampaign(t, chips.MiniNVIDIA(), "reduction", gpu.LocalMemory, 60)
	b := testCampaign(t, chips.MiniNVIDIA(), "reduction", gpu.LocalMemory, 60)
	if a.Outcomes != b.Outcomes {
		t.Fatalf("same seed produced different outcomes: %v vs %v", a.Outcomes, b.Outcomes)
	}
}

func TestCampaignDifferentSeedsDiffer(t *testing.T) {
	b, err := workloads.ByName("reduction")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Run(Campaign{Chip: chips.MiniNVIDIA(), Benchmark: b, Structure: gpu.RegisterFile, Injections: 150, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(Campaign{Chip: chips.MiniNVIDIA(), Benchmark: b, Structure: gpu.RegisterFile, Injections: 150, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Outcomes == r2.Outcomes {
		t.Log("warning: different seeds produced identical outcome vectors (possible but unlikely)")
	}
}

func TestCampaignAMD(t *testing.T) {
	res := testCampaign(t, chips.MiniAMD(), "vectoradd", gpu.RegisterFile, 100)
	if res.GoldenStats.Cycles <= 0 {
		t.Fatalf("golden stats missing: %+v", res.GoldenStats)
	}
}

// TestSomeFaultsManifest: with enough injections into the register file of
// a compute-heavy kernel, at least one should fail (AVF > 0) and at least
// one should be masked (AVF < 1).
func TestSomeFaultsManifest(t *testing.T) {
	res := testCampaign(t, chips.MiniNVIDIA(), "matrixMul", gpu.RegisterFile, 200)
	if res.AVF() == 0 {
		t.Fatal("no fault manifested in 200 register-file injections of matrixMul")
	}
	if res.AVF() == 1 {
		t.Fatal("every fault manifested; masking is implausibly absent")
	}
}
