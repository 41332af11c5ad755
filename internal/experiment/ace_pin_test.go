package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/campaign"
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
// on the campaigns), each on a private scheduler, so the pairs Fig. 2 and
// Fig. 3 share with Fig. 1 are run again and must read the same. They run
// again under both estimators at one injection a cell, which reads every
// AVF-ACE off the FI campaigns' golden runs and runs no golden-only cell:
// every cell must read as the golden-only ones.
// The first 40 lines were recorded by a serial analyzer over flat
// per-entry arrays, all 90 by the paged analyzer before the liveness
// recorder replaced it; golden-only cells, paged state or a second
// definition of ACE time that moves one bit is a diff here. Regenerate with
// `go test ./internal/experiment -run TestACEPinnedOverFigureGrid -update`
// only after an intended simulator or ACE change.
func TestACEPinnedOverFigureGrid(t *testing.T) {
	t.Parallel()
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
		plan, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		sched := campaign.New(campaign.Config{})
		res, err := (&Runner{Scheduler: sched}).RunPlan(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		if n := sched.Stats().Runs; n != int64(len(plan.Keys())) {
			t.Errorf("%s under %s: %d cell runs for %d cells", spec.Name, spec.Estimator, n, len(plan.Keys()))
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

// aceOnlySpec is an ACE-only spec over both structures of the Mini
// chips, the whole suite, with FIT: every field an ACE-only cell fills.
func aceOnlySpec() Spec {
	return Spec{
		Name:       "mini-ace-only",
		Chips:      []string{"Mini NVIDIA", "Mini AMD"},
		Structures: []gpu.Structure{gpu.RegisterFile, gpu.LocalMemory},
		Estimator:  EstimatorACE,
		Seed:       7,
		Metrics:    Metrics{FIT: true},
	}
}

// TestACEOnlyResultPinned pins the whole Result of an ACE-only spec,
// byte for byte: testdata/ace_only_mini.json was recorded when the
// ACE-only estimator traced runs of its own, so reading the same AVF-ACE,
// occupancy and cycles off golden-only campaigns moves nothing. The file
// is not regenerated by any flag; a diff here is a change of result.
func TestACEOnlyResultPinned(t *testing.T) {
	t.Parallel()
	res, err := (&Runner{}).Run(context.Background(), aceOnlySpec())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/ace_only_mini.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(got, '\n'), want) {
		t.Fatalf("the ACE-only result moved from testdata/ace_only_mini.json:\n%s", got)
	}
}
