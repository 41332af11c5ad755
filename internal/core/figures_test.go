package core_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/gpu"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// run executes one spec on a private scheduler.
func run(t *testing.T, spec experiment.Spec) *experiment.Result {
	t.Helper()
	res, err := (&experiment.Runner{}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFiguresShareScheduler is the orchestration acceptance test: running
// Fig. 1, Fig. 2 and then Fig. 3 against one shared scheduler must
// execute every unique (chip, benchmark, structure) campaign exactly
// once, and a warm-store rerun of Fig. 3 must perform zero new
// injections.
func TestFiguresShareScheduler(t *testing.T) {
	sched := campaign.New(campaign.Config{})
	runner := &experiment.Runner{Scheduler: sched}
	figure := func(n int) *experiment.Result {
		t.Helper()
		spec, err := miniFigure(n, 10, 9)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runner.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	const nChips = 2
	nAll := int64(len(workloads.All()))
	nLocal := int64(len(workloads.LocalMemorySubset()))
	check := func(after string, runs, goldens, hits int64) {
		t.Helper()
		st := sched.Stats()
		if st.Runs != runs || st.GoldenRuns != goldens || st.Hits != hits {
			t.Fatalf("after %s: %d runs, %d goldens, %d hits; want %d, %d, %d",
				after, st.Runs, st.GoldenRuns, st.Hits, runs, goldens, hits)
		}
	}

	// Fig. 1: one campaign and one golden run per (chip, benchmark).
	figure(1)
	check("fig 1", nAll*nChips, nAll*nChips, 0)
	// Fig. 2's local-memory campaigns reuse Fig. 1's golden runs.
	figure(2)
	check("figs 1+2", (nAll+nLocal)*nChips, nAll*nChips, 0)
	// Fig. 3 needs both structures for all benchmarks: the register-file
	// cells and the 7 local-memory cells already exist, so only the
	// local-memory campaigns of the non-local benchmarks are new.
	epf := figure(3)
	check("figs 1+2+3", 2*nAll*nChips, nAll*nChips, (nAll+nLocal)*nChips)
	// Warm rerun: zero new campaigns, zero new goldens, the same figure.
	epf2 := figure(3)
	check("warm fig 3", 2*nAll*nChips, nAll*nChips, (nAll+nLocal)*nChips+2*nAll*nChips)
	for bi := range epf.EPF.Rows {
		for ci := range epf.EPF.Rows[bi] {
			if *epf.EPF.Rows[bi][ci] != *epf2.EPF.Rows[bi][ci] {
				t.Fatalf("warm rerun changed row %d/%d", bi, ci)
			}
		}
	}
}

// TestMeasureEPFReusesStore: the EPF assembly goes through the store, so
// both structures of one (chip, benchmark) share a golden run and
// repeating the figure is free.
func TestMeasureEPFReusesStore(t *testing.T) {
	sched := campaign.New(campaign.Config{})
	runner := &experiment.Runner{Scheduler: sched}
	spec, err := experiment.Figure(3)
	if err != nil {
		t.Fatal(err)
	}
	spec.Chips, spec.Benchmarks = []string{"Mini NVIDIA"}, []string{"reduction"}
	spec.Injections, spec.Seed = 12, 4
	if _, err := runner.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	first := sched.Stats()
	if first.Runs != 2 || first.GoldenRuns != 1 {
		t.Fatalf("one EPF row executed %d campaigns over %d goldens, want 2 over 1", first.Runs, first.GoldenRuns)
	}
	if _, err := runner.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if again := sched.Stats(); again.Runs != first.Runs || again.GoldenRuns != first.GoldenRuns {
		t.Fatalf("repeated EPF re-executed campaigns: %+v", again)
	}
}

func TestFigureCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec, err := miniFigure(1, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&experiment.Runner{}).Run(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestFigureAdaptiveStopsBelowCap: an attainable margin must save
// injections on every cell of a figure run, and the realized count is
// surfaced on the cell.
func TestFigureAdaptiveStopsBelowCap(t *testing.T) {
	spec, err := miniFigure(1, 2000, 9)
	if err != nil {
		t.Fatal(err)
	}
	spec.Benchmarks = []string{"vectoradd"}
	spec.Policy.Margin = 0.1
	for _, row := range run(t, spec).Tables[0].Cells {
		for _, cell := range row {
			if cell.Injections <= 0 || cell.Injections >= 2000 {
				t.Fatalf("cell %s/%s realized %d injections, want early stop below the cap",
					cell.Chip, cell.Benchmark, cell.Injections)
			}
		}
	}
}

// TestFIWithinACEBound encodes the methodology's structural relationship:
// in expectation, a fault manifests only if it lands in an ACE interval,
// so AVF-FI must not exceed AVF-ACE by more than the FI sampling margin.
// This is the invariant behind the paper's "ACE is conservative"
// reading, checked per benchmark and structure on both vendors' mini
// chips with a fixed seed.
func TestFIWithinACEBound(t *testing.T) {
	// knownGap lists the cells where the bound does NOT hold: none today.
	// A listed cell that meets the bound fails the test too, so an entry
	// goes away with its fix, not before and not later.
	knownGap := map[string]bool{}

	const n = 250
	margin, err := stats.MarginOfError(n, 0, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, experiment.Spec{
		Chips:      []string{"Mini NVIDIA", "Mini AMD"},
		Benchmarks: []string{"transpose", "matrixMul", "reduction"},
		Structures: []gpu.Structure{gpu.RegisterFile, gpu.LocalMemory},
		Estimator:  experiment.EstimatorBoth,
		Injections: n,
		Seed:       17,
	})
	for _, tbl := range res.Tables {
		for _, row := range tbl.Cells {
			for _, cell := range row {
				name := cell.Chip + "/" + cell.Benchmark + "/" + cell.Structure.String()
				exceeds := cell.AVFFI > cell.AVFACE+margin
				switch {
				case exceeds && !knownGap[name]:
					t.Errorf("%s: AVF-FI %.4f exceeds AVF-ACE %.4f beyond the ±%.4f sampling margin",
						name, cell.AVFFI, cell.AVFACE, margin)
				case !exceeds && knownGap[name]:
					t.Errorf("%s: AVF-FI %.4f is within AVF-ACE %.4f ± %.4f again; delete its knownGap entry",
						name, cell.AVFFI, cell.AVFACE, margin)
				}
			}
		}
	}
}

// TestAVFTracksOccupancyAcrossSuite encodes the paper's occupancy
// correlation quantitatively: across the suite, ACE AVF and occupancy
// must correlate strongly on the register file.
func TestAVFTracksOccupancyAcrossSuite(t *testing.T) {
	res := run(t, experiment.Spec{
		Chips:     []string{"Mini NVIDIA"},
		Estimator: experiment.EstimatorACE, // the lifetime analysis alone drives the test
	})
	var avfs, occs []float64
	for _, row := range res.Tables[0].Cells {
		avfs = append(avfs, row[0].AVFACE)
		occs = append(occs, row[0].Occupancy)
	}
	if len(avfs) != len(workloads.All()) {
		t.Fatalf("%d benchmarks measured, want the whole suite", len(avfs))
	}
	r, err := stats.PearsonCorrelation(occs, avfs)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.6 {
		t.Fatalf("occupancy-AVF correlation r=%.3f too weak (paper reports a strong correlation)", r)
	}
}

// TestMeasureCell: a one-cell spec carries both methodologies' numbers
// for its cell, mutually consistent.
func TestMeasureCell(t *testing.T) {
	cell := run(t, experiment.Spec{
		Chips:      []string{"Mini NVIDIA"},
		Benchmarks: []string{"reduction"},
		Structures: []gpu.Structure{gpu.LocalMemory},
		Injections: 80,
		Seed:       9,
	}).Tables[0].Cells[0][0]
	if cell.Chip != "Mini NVIDIA" || cell.Benchmark != "reduction" {
		t.Fatalf("labels: %+v", cell)
	}
	if cell.AVFFI < 0 || cell.AVFFI > 1 || cell.AVFACE <= 0 || cell.AVFACE > 1 {
		t.Fatalf("AVFs out of range: %+v", cell)
	}
	if cell.AVFFILo > cell.AVFFI || cell.AVFFIHi < cell.AVFFI {
		t.Fatalf("interval excludes estimate: %+v", cell)
	}
	if cell.Cycles <= 0 {
		t.Fatal("no cycles")
	}
	total := 0
	for _, c := range cell.Outcomes {
		total += c
	}
	if total != 80 {
		t.Fatalf("outcomes sum %d, want 80", total)
	}
}

// The next three read the inertness baseline — Figs. 1–3 on the mini
// chips — instead of running the figures again.

// TestFigureRegisterFileGrid: Fig. 1 is benchmarks x chips plus one
// average per chip, and each average lies within its column's extremes.
func TestFigureRegisterFileGrid(t *testing.T) {
	figs, err := baseline()
	if err != nil {
		t.Fatal(err)
	}
	fig, tbl := figs[0], figs[0].Tables[0]
	if len(fig.Benchmarks) != 10 || len(fig.Chips) != 2 || len(tbl.Cells) != 10 || len(tbl.Cells[0]) != 2 || len(tbl.Averages) != 2 {
		t.Fatalf("grid %dx%d, cells %dx%d, %d averages", len(fig.Benchmarks), len(fig.Chips), len(tbl.Cells), len(tbl.Cells[0]), len(tbl.Averages))
	}
	for ci := range fig.Chips {
		lo, hi := 2.0, -1.0
		for bi := range fig.Benchmarks {
			lo, hi = min(lo, tbl.Cells[bi][ci].AVFACE), max(hi, tbl.Cells[bi][ci].AVFACE)
		}
		if avg := tbl.Averages[ci].AVFACE; avg < lo-1e-12 || avg > hi+1e-12 {
			t.Fatalf("chip %d average %v outside [%v,%v]", ci, avg, lo, hi)
		}
	}
}

func TestFigureLocalMemoryUsesSubset(t *testing.T) {
	figs, err := baseline()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(figs[1].Benchmarks); n != 7 || len(figs[1].Tables[0].Cells) != 7 {
		t.Fatalf("local-memory figure has %d benchmarks, want 7", n)
	}
	for _, n := range figs[1].Benchmarks {
		if n == "gaussian" || n == "kmeans" || n == "vectoradd" {
			t.Fatalf("non-local benchmark %s in Fig. 2 set", n)
		}
	}
}

// TestFigureEPF: every Fig. 3 row has an execution time, and EPF
// responds to AVF — finite and positive wherever a fault manifested.
func TestFigureEPF(t *testing.T) {
	figs, err := baseline()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range figs[2].EPF.Rows {
		for _, r := range row {
			if r.Seconds <= 0 || r.Cycles <= 0 || r.EPF < 0 {
				t.Fatalf("row %+v", r)
			}
			if (r.RegAVF > 0 || r.LocalAVF > 0) && r.EPF == 0 {
				t.Fatalf("manifested faults but zero EPF: %+v", r)
			}
		}
	}
}

func TestCellSeedDistinct(t *testing.T) {
	s1 := experiment.CellSeed(1, "a", "b", gpu.RegisterFile)
	s2 := experiment.CellSeed(1, "a", "b", gpu.LocalMemory)
	s3 := experiment.CellSeed(1, "a", "c", gpu.RegisterFile)
	s4 := experiment.CellSeed(2, "a", "b", gpu.RegisterFile)
	if s1 == s2 || s1 == s3 || s1 == s4 || s2 == s3 {
		t.Fatalf("seed collisions: %x %x %x %x", s1, s2, s3, s4)
	}
}
