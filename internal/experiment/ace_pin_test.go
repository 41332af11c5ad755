package experiment

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/gpu"
)

var update = flag.Bool("update", false, "rewrite testdata/ace_pairs.golden from what the ACE runs measure now")

// TestACEPinnedOverFigureGrid pins every ACE value of the paper's grid:
// one line per (chip, benchmark) pair of the three figures with both
// structures' AVF-ACE and occupancy as float bits and the cycle count.
// The three figure specs run on one Runner under the ACE estimator (their
// ACE values do not depend on the campaigns), so the pairs Fig. 2 and
// Fig. 3 share with Fig. 1 are answered by the Runner's memo and must
// read the same. The file was recorded by a serial analyzer over flat
// per-entry arrays; a parallel ACE phase or paged analyzer state that
// moves one bit is a diff here. Regenerate with
// `go test ./internal/experiment -run TestACEPinnedOverFigureGrid -update`
// only after an intended simulator or analyzer change.
func TestACEPinnedOverFigureGrid(t *testing.T) {
	const golden = "testdata/ace_pairs.golden"
	type pair struct {
		avf, occ [2]float64
		seen     [2]bool
		cycles   int64
	}
	pairs := make(map[[2]string]*pair)
	var order [][2]string
	r := &Runner{}
	for n := 1; n <= 3; n++ {
		spec, err := Figure(n)
		if err != nil {
			t.Fatal(err)
		}
		spec.Estimator, spec.Metrics = EstimatorACE, Metrics{}
		res, err := r.Run(context.Background(), spec)
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
