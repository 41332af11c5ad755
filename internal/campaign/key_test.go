package campaign

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/chips"
	"repro/internal/finject"
	"repro/internal/gpu"
	"repro/internal/workloads"
)

func testCampaign(t *testing.T, bench string) finject.Campaign {
	t.Helper()
	b, err := workloads.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	return finject.Campaign{
		Chip:       chips.MiniNVIDIA(),
		Benchmark:  b,
		Structure:  gpu.RegisterFile,
		Injections: 40,
		Seed:       11,
	}
}

func TestKeyCanonicalization(t *testing.T) {
	// A campaign written with implicit defaults and one with the defaults
	// spelled out are the same cell.
	implicit := CellSpec{Chip: "Mini NVIDIA", Benchmark: "vectoradd", Seed: 3}
	explicit := CellSpec{
		Chip:           "Mini NVIDIA",
		Benchmark:      "vectoradd",
		Seed:           3,
		Injections:     finject.DefaultInjections,
		FaultWidth:     1,
		WatchdogFactor: finject.DefaultWatchdogFactor,
	}
	if implicit.Key() != explicit.Key() {
		t.Fatal("defaulted and explicit specs disagree on the key")
	}
	if implicit.Normalize() != explicit.Normalize() {
		t.Fatal("normalized specs differ")
	}
}

func TestKeyDistinguishesParameters(t *testing.T) {
	base := CellSpec{Chip: "Mini NVIDIA", Benchmark: "vectoradd", Seed: 3, Injections: 100}
	seen := map[CellKey]string{base.Key(): "base"}
	variants := map[string]CellSpec{
		"seed":       {Chip: "Mini NVIDIA", Benchmark: "vectoradd", Seed: 4, Injections: 100},
		"chip":       {Chip: "Mini AMD", Benchmark: "vectoradd", Seed: 3, Injections: 100},
		"benchmark":  {Chip: "Mini NVIDIA", Benchmark: "transpose", Seed: 3, Injections: 100},
		"structure":  {Chip: "Mini NVIDIA", Benchmark: "vectoradd", Seed: 3, Injections: 100, Structure: gpu.LocalMemory},
		"injections": {Chip: "Mini NVIDIA", Benchmark: "vectoradd", Seed: 3, Injections: 101},
		"width":      {Chip: "Mini NVIDIA", Benchmark: "vectoradd", Seed: 3, Injections: 100, FaultWidth: 2},
		"watchdog":   {Chip: "Mini NVIDIA", Benchmark: "vectoradd", Seed: 3, Injections: 100, WatchdogFactor: 5},
	}
	for name, v := range variants {
		k := v.Key()
		if prev, dup := seen[k]; dup {
			t.Fatalf("variant %q collides with %q", name, prev)
		}
		seen[k] = name
	}
}

func TestSpecOfRoundTrip(t *testing.T) {
	c := testCampaign(t, "vectoradd")
	spec := SpecOf(c)
	if spec.Chip != "Mini NVIDIA" || spec.Benchmark != "vectoradd" {
		t.Fatalf("spec labels: %+v", spec)
	}
	if spec.Injections != 40 || spec.FaultWidth != 1 || spec.WatchdogFactor != finject.DefaultWatchdogFactor {
		t.Fatalf("spec not normalized: %+v", spec)
	}
	back, err := spec.Campaign()
	if err != nil {
		t.Fatal(err)
	}
	if SpecOf(back) != spec {
		t.Fatalf("round trip changed the spec: %+v vs %+v", SpecOf(back), spec)
	}
	if back.Chip.Name != c.Chip.Name || back.Benchmark.Name != c.Benchmark.Name {
		t.Fatal("round trip resolved different chip or benchmark")
	}
}

func TestSpecCampaignUnknownNames(t *testing.T) {
	if _, err := (CellSpec{Chip: "no such chip", Benchmark: "vectoradd"}).Campaign(); err == nil {
		t.Fatal("unknown chip accepted")
	}
	if _, err := (CellSpec{Chip: "Mini NVIDIA", Benchmark: "no such bench"}).Campaign(); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// TestGoldenOnlyCell: a golden-only cell normalizes to 0 injections,
// keys apart from its FI sibling, and carries its mark through SpecOf,
// Campaign and JSON; an FI cell's JSON does not name the field.
func TestGoldenOnlyCell(t *testing.T) {
	c := testCampaign(t, "vectoradd")
	fi := SpecOf(c)
	c.GoldenOnly = true
	g := SpecOf(c)
	if !g.GoldenOnly || g.Injections != 0 {
		t.Fatalf("golden-only spec %+v, want the mark and 0 injections", g)
	}
	if g.Key() == fi.Key() {
		t.Fatal("a golden-only cell keys as its FI sibling")
	}
	back, err := g.Campaign()
	if err != nil {
		t.Fatal(err)
	}
	if !back.GoldenOnly || SpecOf(back) != g {
		t.Fatalf("round trip lost the mark: %+v", SpecOf(back))
	}
	for _, tc := range []struct {
		spec CellSpec
		want bool
	}{{fi, false}, {g, true}} {
		b, err := json.Marshal(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(string(b), `"golden_only"`); got != tc.want {
			t.Fatalf("%s names golden_only: %v, want %v", b, got, tc.want)
		}
		var re CellSpec
		if err := json.Unmarshal(b, &re); err != nil || re != tc.spec {
			t.Fatalf("JSON round trip: %+v, %v", re, err)
		}
	}
}

// TestGoldenOnlyKeyNamesOnlyItsPair: a golden-only cell's result depends
// on its chip, benchmark and structure alone, so specs that differ in any
// FI field share one key; FI specs that differ in seed do not.
func TestGoldenOnlyKeyNamesOnlyItsPair(t *testing.T) {
	base := CellSpec{Chip: "Mini NVIDIA", Benchmark: "vectoradd", Structure: gpu.LocalMemory, GoldenOnly: true}
	for _, v := range []CellSpec{
		{Injections: 500}, {Seed: 7}, {FaultWidth: 4}, {WatchdogFactor: 9},
		{CheckpointOff: true}, {CheckpointInterval: 512},
	} {
		v.Chip, v.Benchmark, v.Structure, v.GoldenOnly = base.Chip, base.Benchmark, base.Structure, true
		if v.Normalize() != base.Normalize() || v.Key() != base.Key() {
			t.Errorf("golden-only %+v normalizes to %+v and keys apart from %+v", v, v.Normalize(), base.Normalize())
		}
	}
	a, b := base, base
	a.GoldenOnly, b.GoldenOnly, b.Seed = false, false, 7
	if a.Key() == b.Key() {
		t.Fatal("FI cells that differ in seed share a key")
	}
}
