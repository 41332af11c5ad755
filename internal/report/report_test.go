package report

import (
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/gpu"
	"repro/internal/protect"
)

// sampleResult is a hand-built two-chip, one-benchmark result under the
// given estimator, with the numbers an unmeasured methodology leaves at
// zero left at zero — exactly what the runner produces.
func sampleResult(est experiment.Estimator) *experiment.Result {
	cellA := &experiment.Cell{Chip: "Chip A", Benchmark: "bm1", Structure: gpu.RegisterFile, Occupancy: 0.5, Cycles: 1000}
	cellB := &experiment.Cell{Chip: "Chip B", Benchmark: "bm1", Structure: gpu.RegisterFile, Occupancy: 0.1, Cycles: 2000}
	if est != experiment.EstimatorACE {
		cellA.AVFFI, cellA.AVFFILo, cellA.AVFFIHi, cellA.Injections = 0.123, 0.10, 0.15, 100
		cellB.AVFFI, cellB.AVFFILo, cellB.AVFFIHi, cellB.Injections = 0.01, 0.005, 0.02, 100
		cellA.Outcomes = [gpu.NumOutcomes]int{88, 9, 3, 0}
		cellB.Outcomes = [gpu.NumOutcomes]int{99, 1, 0, 0}
	}
	if est != experiment.EstimatorFI {
		cellA.AVFACE, cellB.AVFACE = 0.2, 0.015
	}
	avg := func(c *experiment.Cell) *experiment.Cell {
		return &experiment.Cell{Chip: c.Chip, Benchmark: "average", Structure: c.Structure,
			AVFFI: c.AVFFI, AVFACE: c.AVFACE, Occupancy: c.Occupancy}
	}
	return &experiment.Result{
		Spec:       experiment.Spec{Version: 1, Name: "sample", Estimator: est, Injections: 100},
		Chips:      []string{"Chip A", "Chip B"},
		Benchmarks: []string{"bm1"},
		Tables: []*experiment.Table{{
			Structure: gpu.RegisterFile,
			Cells:     [][]*experiment.Cell{{cellA, cellB}},
			Averages:  []*experiment.Cell{avg(cellA), avg(cellB)},
		}},
	}
}

// withEPF adds Fig. 3's table (one finite row, one all-zero-AVF row) and
// two protection what-if rows.
func withEPF(res *experiment.Result) *experiment.Result {
	res.EPF = &experiment.EPFTable{Rows: [][]*experiment.EPFRow{{
		{Chip: "Chip A", Benchmark: "bm1", EPF: 1.5e14, Seconds: 1e-4, Cycles: 1000, RegAVF: 0.123, LocalAVF: 0.01},
		{Chip: "Chip B", Benchmark: "bm1", EPF: 0, Seconds: 2e-4, Cycles: 2000},
	}}}
	res.Protection = []*experiment.ProtectionRow{
		{Config: "unprotected", Chip: "Chip A", Benchmark: "bm1", Result: protect.Result{EPF: 1.5e14, SDCFIT: 12.5, DUEFIT: 3.25}},
		{Config: "secded-all", Chip: "Chip A", Benchmark: "bm1", Result: protect.Result{EPF: 0, Slowdown: 0.03, ExtraBits: 4096}},
	}
	return res
}

// underlined expands each {{UNDERLINE}} line of an expected rendering to
// the renderer's rule: one "=" per byte of the title above it.
func underlined(want string) string {
	lines := strings.Split(want, "\n")
	for i, l := range lines {
		if l == "{{UNDERLINE}}" {
			lines[i] = strings.Repeat("=", len(lines[i-1]))
		}
	}
	return strings.Join(lines, "\n")
}

func render(t *testing.T, res *experiment.Result) string {
	t.Helper()
	var sb strings.Builder
	if err := WriteExperiment(&sb, res); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestWriteFigure pins the AVF table (the layout of Figs. 1 and 2) under
// each estimator: measured columns print numbers, the columns of a
// methodology the spec did not run print "-" — never a 0.00% nobody
// measured — and the average rows carry no interval.
func TestWriteFigure(t *testing.T) {
	for _, tc := range []struct {
		est  experiment.Estimator
		want string
	}{
		{experiment.EstimatorBoth, `sample — register-file AVF (both, 100 injections/campaign)
{{UNDERLINE}}
benchmark   chip               AVF-FI          interval  AVF-ACE  occupancy
bm1         Chip A             12.30% [ 10.00%, 15.00%]   20.00%     50.00%
bm1         Chip B              1.00% [  0.50%,  2.00%]    1.50%     10.00%
average     Chip A             12.30%                     20.00%     50.00%
average     Chip B              1.00%                      1.50%     10.00%

`},
		{experiment.EstimatorFI, `sample — register-file AVF (fi, 100 injections/campaign)
{{UNDERLINE}}
benchmark   chip               AVF-FI          interval  AVF-ACE  occupancy
bm1         Chip A             12.30% [ 10.00%, 15.00%]        -     50.00%
bm1         Chip B              1.00% [  0.50%,  2.00%]        -     10.00%
average     Chip A             12.30%                          -     50.00%
average     Chip B              1.00%                          -     10.00%

`},
		{experiment.EstimatorACE, `sample — register-file AVF (ace, 100 injections/campaign)
{{UNDERLINE}}
benchmark   chip               AVF-FI          interval  AVF-ACE  occupancy
bm1         Chip A                  -                 -   20.00%     50.00%
bm1         Chip B                  -                 -    1.50%     10.00%
average     Chip A                  -                     20.00%     50.00%
average     Chip B                  -                      1.50%     10.00%

`},
	} {
		if got := render(t, sampleResult(tc.est)); got != underlined(tc.want) {
			t.Errorf("%s estimator:\ngot:\n%s\nwant:\n%s", tc.est, got, tc.want)
		}
	}
}

// TestWriteEPF pins the EPF table (Fig. 3) and the protection rows: an
// EPF of 0 encodes the zero-FIT infinity and prints as "inf".
func TestWriteEPF(t *testing.T) {
	got := render(t, withEPF(sampleResult(experiment.EstimatorFI)))
	_, got, _ = strings.Cut(got, "\n\n") // the AVF table is TestWriteFigure's
	want := `sample — Executions per Failure
{{UNDERLINE}}
benchmark   chip                      EPF     exec (s)     AVF-RF     AVF-LM
bm1         Chip A              1.500e+14    1.000e-04     12.30%      1.00%
bm1         Chip B                    inf    2.000e-04      0.00%      0.00%

sample — protection what-ifs
{{UNDERLINE}}
config         benchmark   chip                      EPF    SDC FIT    DUE FIT  slowdown   extra bits
unprotected    bm1         Chip A              1.500e+14       12.5        3.2      0.0%            0
secded-all     bm1         Chip A                    inf        0.0        0.0      3.0%         4096
`
	if got != underlined(want) {
		t.Errorf("got:\n%s\nwant:\n%s", got, underlined(want))
	}
}

// TestWriteExperimentUnnamed: a spec without a name still gets titles.
func TestWriteExperimentUnnamed(t *testing.T) {
	res := sampleResult(experiment.EstimatorBoth)
	res.Spec.Name = ""
	if got := render(t, res); !strings.HasPrefix(got, "experiment — register-file AVF") {
		t.Fatalf("title:\n%s", got)
	}
}
