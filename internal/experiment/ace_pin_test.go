package experiment

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/chips"
	"repro/internal/gpu"
)

var update = flag.Bool("update", false, "rewrite testdata/ace_pairs.golden from what the ACE runs measure now")

// TestACEPinnedOverFigureGrid pins every ACE value of the paper's grid
// and of the five other chips: one line per (chip, benchmark) pair with
// both structures' AVF-ACE and occupancy as float bits and the cycle
// count — the 40 pairs of the three figures, then Fig. 3's grid (both
// structures, the whole suite) on the extended and Mini chips, 90 pairs.
// The specs run under the ACE estimator (their ACE values do not depend
// on the campaigns), so the pairs Fig. 2 and Fig. 3 share with Fig. 1
// are traced again and must read the same. They run again under both
// estimators at one injection a cell, which reads every AVF-ACE off the
// campaigns' golden runs and makes no traced run: every cell must read
// as the traced ones.
// The first 40 lines were recorded by a serial analyzer over flat
// per-entry arrays, all 90 by the paged analyzer before the liveness
// recorder replaced it; a parallel ACE phase, paged state or a second
// definition of ACE time that moves one bit is a diff here. Regenerate with
// `go test ./internal/experiment -run TestACEPinnedOverFigureGrid -update`
// only after an intended simulator or ACE change.
func TestACEPinnedOverFigureGrid(t *testing.T) {
	const golden = "testdata/ace_pairs.golden"
	type pair struct {
		avf, occ [2]float64
		seen     [2]bool
		cycles   int64
	}
	pairs := make(map[[2]string]*pair)
	var order [][2]string
	var others []string
	for _, c := range append(chips.Extended(), chips.MiniNVIDIA(), chips.MiniAMD()) {
		others = append(others, c.Name)
	}
	var tracedBefore int64
	for pass := range 8 {
		n := pass%4 + 1
		spec, err := Figure(min(n, 3))
		if err != nil {
			t.Fatal(err)
		}
		if n == 4 {
			spec.Chips = others
		}
		spec.Estimator, spec.Metrics = EstimatorACE, Metrics{}
		if pass >= 4 {
			spec.Estimator, spec.Injections = EstimatorBoth, 1
		}
		if pass == 4 {
			tracedBefore = tracedRuns.Load()
		}
		res, err := (&Runner{}).Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, tbl := range res.Tables {
			si := 0
			if tbl.Structure == gpu.LocalMemory {
				si = 1
			}
			for _, row := range tbl.Cells {
				for _, c := range row {
					key := [2]string{c.Chip, c.Benchmark}
					p := pairs[key]
					if p == nil {
						p = &pair{cycles: c.Cycles}
						pairs[key] = p
						order = append(order, key)
					}
					if !p.seen[si] {
						p.avf[si], p.occ[si], p.seen[si] = c.AVFACE, c.Occupancy, true
					}
					if c.AVFACE != p.avf[si] || c.Occupancy != p.occ[si] || c.Cycles != p.cycles {
						t.Errorf("%s: %s/%s %s reads %v/%v/%d, an earlier figure %v/%v/%d",
							spec.Name, c.Chip, c.Benchmark, tbl.Structure, c.AVFACE, c.Occupancy, c.Cycles, p.avf[si], p.occ[si], p.cycles)
					}
				}
			}
		}
	}
	if n := tracedRuns.Load() - tracedBefore; n != 0 {
		t.Errorf("%d traced runs under both estimators, want 0", n)
	}
	var b strings.Builder
	for _, key := range order {
		p := pairs[key]
		fmt.Fprintf(&b, "%s on %s: reg=%016x local=%016x cycles=%d occ_reg=%016x occ_local=%016x\n",
			key[1], key[0], math.Float64bits(p.avf[0]), math.Float64bits(p.avf[1]), p.cycles,
			math.Float64bits(p.occ[0]), math.Float64bits(p.occ[1]))
	}
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d pairs measured, %s pins %d", len(gotLines)-1, golden, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("ACE pair moved:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}
