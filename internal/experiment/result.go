package experiment

import "repro/internal/gpu"

// Cell is one measured (chip, benchmark, structure) grid cell: the
// per-methodology AVFs, occupancy, golden execution length and the FI
// outcome breakdown — one bar group of Fig. 1 or Fig. 2.
type Cell struct {
	Chip      string        `json:"chip"`
	Benchmark string        `json:"benchmark"`
	Structure gpu.Structure `json:"structure"`
	// AVFFI is the fault-injection AVF with its confidence interval
	// (zero under the ACE-only estimator).
	AVFFI   float64 `json:"avf_fi"`
	AVFFILo float64 `json:"avf_fi_lo"`
	AVFFIHi float64 `json:"avf_fi_hi"`
	// AVFACE is the lifetime-analysis AVF (zero under the FI-only
	// estimator).
	AVFACE float64 `json:"avf_ace"`
	// Occupancy is the time-weighted structure occupancy.
	Occupancy float64 `json:"occupancy"`
	// Cycles is the golden execution length.
	Cycles int64 `json:"cycles"`
	// Injections is the realized FI sample size (an adaptive campaign
	// stops below the cap once its interval is tight enough).
	Injections int `json:"injections,omitempty"`
	// Outcomes breaks the injections down by class.
	Outcomes [gpu.NumOutcomes]int `json:"outcomes"`
	// FIT is the cell's failure rate, present when Metrics.FIT is set.
	FIT float64 `json:"fit,omitempty"`
}

// Table is one structure's AVF grid — the content of Fig. 1 or Fig. 2
// when the spec matches the paper's.
type Table struct {
	Structure gpu.Structure `json:"structure"`
	// Cells[b][c] corresponds to Benchmarks[b] on Chips[c] of the
	// enclosing Result.
	Cells [][]*Cell `json:"cells"`
	// Averages[c] holds the across-benchmark mean cell per chip (the
	// figures' "average" column group).
	Averages []*Cell `json:"averages"`
}

// EPFRow is one bar of the EPF table (Fig. 3 when the spec matches).
type EPFRow struct {
	Chip      string `json:"chip"`
	Benchmark string `json:"benchmark"`
	// EPF is executions per failure; 0 encodes +Inf (all-zero AVFs).
	EPF float64 `json:"epf"`
	// Seconds is one execution's wall-clock time; Cycles its length.
	Seconds float64 `json:"seconds"`
	Cycles  int64   `json:"cycles"`
	// RegAVF and LocalAVF are the FI AVFs entering FIT_GPU.
	RegAVF   float64 `json:"reg_avf"`
	LocalAVF float64 `json:"local_avf"`
}

// EPFTable is the executions-per-failure dataset.
type EPFTable struct {
	// Rows[b][c] corresponds to Benchmarks[b] on Chips[c].
	Rows [][]*EPFRow `json:"rows"`
}

// ProtectionRow is one protection what-if evaluated on one (benchmark,
// chip): the post-protection EPF and FIT split, with its costs.
type ProtectionRow struct {
	// Config names the protection configuration from the spec.
	Config    string `json:"config"`
	Chip      string `json:"chip"`
	Benchmark string `json:"benchmark"`
	// EPF after protection (0 encodes +Inf).
	EPF float64 `json:"epf"`
	// SDCFIT and DUEFIT are the post-protection failure-rate components.
	SDCFIT float64 `json:"sdc_fit"`
	DUEFIT float64 `json:"due_fit"`
	// Slowdown is the total fractional performance cost.
	Slowdown float64 `json:"slowdown"`
	// ExtraBits is the added storage in bits.
	ExtraBits int64 `json:"extra_bits"`
}

// Result is one executed experiment: the normalized spec it ran, the
// resolved axes, one AVF table per structure and the requested derived
// metrics.
type Result struct {
	Spec       Spec     `json:"spec"`
	Chips      []string `json:"chips"`
	Benchmarks []string `json:"benchmarks"`
	// Tables holds one AVF grid per structure, in spec axis order.
	Tables []*Table `json:"tables"`
	// EPF is present when Metrics.EPF was requested.
	EPF *EPFTable `json:"epf,omitempty"`
	// Protection holds the what-if rows, config-major then
	// benchmark-major, when Metrics.Protection was requested.
	Protection []*ProtectionRow `json:"protection,omitempty"`
}
