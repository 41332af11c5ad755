package finject

import (
	"encoding/json"
	"testing"

	"repro/internal/chips"
	"repro/internal/gpu"
	"repro/internal/workloads"
)

// TestResultByteIdentical is the engine's determinism contract: with a
// fixed seed, the marshaled Result — outcome counts, realized sample
// size, golden statistics and the full per-injection record stream — is
// byte-identical for any worker count, and for serial vs adaptive
// execution whenever both run the same number of injections (here an
// unattainable margin drives the adaptive run to the cap).
func TestResultByteIdentical(t *testing.T) {
	b, err := workloads.ByName("matrixMul")
	if err != nil {
		t.Fatal(err)
	}
	chip := chips.MiniNVIDIA()
	golden, err := NewGolden(chip, b)
	if err != nil {
		t.Fatal(err)
	}
	const cap = 150
	campaign := func(pol Config) Campaign {
		return Campaign{
			Chip: chip, Benchmark: b, Structure: gpu.RegisterFile,
			Injections: cap, Seed: 9, detail: true, Golden: golden,
			Policy: pol,
		}
	}
	marshal := func(pol Config) []byte {
		t.Helper()
		res, err := Run(campaign(pol))
		if err != nil {
			t.Fatal(err)
		}
		if res.Injections != cap {
			t.Fatalf("policy %+v ran %d injections, want %d", pol, res.Injections, cap)
		}
		bs, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return bs
	}

	want := marshal(Config{Workers: 1})
	for _, pol := range []Config{
		{Workers: 8},
		{Workers: 1, Margin: 1e-9},
		{Workers: 8, Margin: 1e-9},
	} {
		if got := marshal(pol); string(got) != string(want) {
			t.Fatalf("policy %+v produced a different result", pol)
		}
	}
}
