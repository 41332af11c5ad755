package finject

import (
	"testing"

	"repro/internal/chips"
	"repro/internal/gpu"
	"repro/internal/workloads"
)

// TestDetailRecords verifies per-injection records: the aggregate
// outcomes must match, SDC records must report corrupted bytes, and the
// record stream must be identical across worker counts.
func TestDetailRecords(t *testing.T) {
	b, err := workloads.ByName("matrixMul")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *Result {
		res, err := Run(Campaign{
			Chip: chips.MiniNVIDIA(), Benchmark: b,
			Structure: gpu.RegisterFile, Injections: 120, Seed: 3,
			Policy: Config{Workers: workers}, detail: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run(4)
	if len(res.Records) != 120 {
		t.Fatalf("got %d records", len(res.Records))
	}
	var agg [gpu.NumOutcomes]int
	for i, r := range res.Records {
		agg[r.Outcome]++
		if r.Outcome == gpu.OutcomeSDC && r.CorruptBytes == 0 {
			t.Fatalf("record %d: SDC with zero corrupted bytes", i)
		}
		if r.Outcome != gpu.OutcomeSDC && r.CorruptBytes != 0 {
			t.Fatalf("record %d: %v with corrupted bytes %d", i, r.Outcome, r.CorruptBytes)
		}
		if r.Fault.Structure != gpu.RegisterFile {
			t.Fatalf("record %d: wrong structure %v", i, r.Fault.Structure)
		}
		if r.Fault.Unit < 0 || r.Fault.Unit >= 2 || r.Fault.Bit > 31 {
			t.Fatalf("record %d: fault site out of range: %v", i, r.Fault)
		}
	}
	if agg != res.Outcomes {
		t.Fatalf("record aggregate %v != outcome counts %v", agg, res.Outcomes)
	}

	// Same seed, different worker count: identical record stream.
	res1 := run(1)
	for i := range res.Records {
		if res.Records[i] != res1.Records[i] {
			t.Fatalf("record %d differs across worker counts: %+v vs %+v",
				i, res.Records[i], res1.Records[i])
		}
	}
}

// TestNoDetailByDefault keeps the memory-free default.
func TestNoDetailByDefault(t *testing.T) {
	b, err := workloads.ByName("vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Campaign{
		Chip: chips.MiniNVIDIA(), Benchmark: b,
		Structure: gpu.RegisterFile, Injections: 20, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != nil {
		t.Fatal("records allocated without detail")
	}
}
