package experiment

import (
	"context"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/finject"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/protect"
)

// defaultRawFIT is the raw soft-error rate a spec's metrics block
// normalizes to when unset.
const defaultRawFIT = metrics.DefaultRawFITPerMbit

// Progress reports one grid cell the runner finished, in completion
// order (the scheduler executes cells concurrently).
type Progress struct {
	// Index is the cell's position in Plan.Cells (and Plan.CellSpecs).
	Index int
	// Cell is the planned cell that completed.
	Cell PlannedCell
	// Spec is its normalized campaign identity.
	Spec campaign.CellSpec
	// Result is the cell's campaign result, with the AVF-ACE of its
	// golden run unless the store served a record from before results
	// carried it; under the ACE-only estimator a golden-only campaign's,
	// with 0 injections. Nil for a failed cell.
	Result *finject.Result
	// Cached is true when the cell was served without running a
	// campaign (store hit or join).
	Cached bool
	// Done and Total count completed grid cells.
	Done, Total int
	// Err is the cell's failure, if any (the run is being canceled).
	Err error
}

// Runner executes compiled experiment plans over a campaign.Scheduler.
// Any executor tier behind the scheduler works — in-process, a shared
// disk store, or a remote fiworker fleet — and produces byte-identical
// results, by the determinism contract of the injection engine. Every
// cell is a campaign, golden-only under the ACE-only estimator, so a
// Runner keeps no state between plans: what one plan measures is cached
// by the scheduler's store.
type Runner struct {
	// Scheduler executes and caches the campaigns; a private in-process
	// scheduler is created per run when nil.
	Scheduler *campaign.Scheduler
	// OnCell, when non-nil, receives per-cell progress as the run
	// streams. It is called from scheduler goroutines, one call at a
	// time.
	OnCell func(Progress)
}

// Run compiles and executes one spec.
func (r *Runner) Run(ctx context.Context, s Spec) (*Result, error) {
	p, err := s.Compile()
	if err != nil {
		return nil, err
	}
	return r.RunPlan(ctx, p)
}

// RunPlan executes a compiled plan: the campaigns of every cell run as
// one scheduler batch (deduplicated, cached, concurrency-bounded), then
// the grid tables, averages and derived metrics assemble from the
// results with the figures' pinned arithmetic.
func (r *Runner) RunPlan(ctx context.Context, p *Plan) (*Result, error) {
	sched := r.Scheduler
	if sched == nil {
		sched = campaign.New(campaign.Config{})
	}
	spec := p.Spec

	res := &Result{
		Spec:       spec,
		Chips:      append([]string(nil), spec.Chips...),
		Benchmarks: append([]string(nil), spec.Benchmarks...),
	}

	// The campaigns, as one batch. A run canceled before it starts
	// reports no cell, not even a store hit.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	batch := make([]finject.Campaign, len(p.Cells))
	for i, c := range p.Cells {
		batch[i] = c.Campaign
	}
	var done int
	onCell := func(i int, fres *finject.Result, cached bool, cellErr error) {
		if r.OnCell == nil {
			return
		}
		done++
		r.OnCell(Progress{
			Index:  i,
			Cell:   p.Cells[i],
			Spec:   campaign.SpecOf(p.Cells[i].Campaign),
			Result: fres,
			Cached: cached,
			Done:   done,
			Total:  len(p.Cells),
			Err:    cellErr,
		})
	}
	results, err := sched.RunBatch(ctx, batch, onCell)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if spec.Estimator == EstimatorBoth {
		if err := withACE(ctx, sched, p, results); err != nil {
			return nil, err
		}
	}
	cells := make(map[[3]int]*Cell, len(p.Cells))
	for i, pc := range p.Cells {
		cell, err := measureCell(spec, pc, results[i])
		if err != nil {
			return nil, err
		}
		cells[[3]int{pc.BenchIndex, pc.ChipIndex, pc.StructIndex}] = cell
	}
	for si, st := range spec.Structures {
		tbl := &Table{Structure: st}
		tbl.Cells = make([][]*Cell, len(p.Benchmarks))
		for bi := range p.Benchmarks {
			tbl.Cells[bi] = make([]*Cell, len(p.Chips))
			for ci := range p.Chips {
				tbl.Cells[bi][ci] = cells[[3]int{bi, ci, si}]
			}
		}
		// Across-benchmark averages per chip ("average" group of the
		// figures); the summation order is part of the pinned bytes.
		for ci, c := range p.Chips {
			avg := &Cell{Chip: c.Name, Benchmark: "average", Structure: st}
			for bi := range p.Benchmarks {
				cell := tbl.Cells[bi][ci]
				avg.AVFFI += cell.AVFFI
				avg.AVFACE += cell.AVFACE
				avg.Occupancy += cell.Occupancy
			}
			n := float64(len(p.Benchmarks))
			avg.AVFFI /= n
			avg.AVFACE /= n
			avg.Occupancy /= n
			tbl.Averages = append(tbl.Averages, avg)
		}
		res.Tables = append(res.Tables, tbl)
	}

	// Derived metrics.
	if spec.Metrics.EPF {
		if res.EPF, err = assembleEPF(spec, p, cells); err != nil {
			return nil, err
		}
	}
	if len(spec.Metrics.Protection) > 0 {
		if res.Protection, err = assembleProtection(spec, p, cells); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// withACE gives every FI result that carries no AVF-ACE — a store record
// from before results carried it — the AVF-ACE of the cell's golden-only
// sibling, run as a second batch. It replaces such a result with a copy
// rather than change one the store owns.
func withACE(ctx context.Context, sched *campaign.Scheduler, p *Plan, results []*finject.Result) error {
	var idx []int
	var siblings []finject.Campaign
	for i, fres := range results {
		if fres.AVFACE == nil {
			c := p.Cells[i].Campaign
			c.GoldenOnly = true
			idx, siblings = append(idx, i), append(siblings, c)
		}
	}
	if len(siblings) == 0 {
		return nil
	}
	golden, err := sched.RunBatch(ctx, siblings, nil)
	if err != nil {
		return err
	}
	for j, i := range idx {
		fres := *results[i]
		fres.AVFACE = golden[j].AVFACE
		results[i] = &fres
	}
	return nil
}

// measureCell measures one grid cell under the spec's estimator from its
// campaign's result: occupancy, cycles and AVF-ACE from the golden run,
// the FI AVF and outcomes from the injections.
func measureCell(spec Spec, pc PlannedCell, fres *finject.Result) (*Cell, error) {
	cell := &Cell{
		Chip:      pc.Chip.Name,
		Benchmark: pc.Benchmark.Name,
		Structure: pc.Structure,
		Occupancy: fres.Occupancy,
		Cycles:    fres.GoldenStats.Cycles,
	}
	if spec.Estimator.fi() {
		lo, hi, err := fres.AVFInterval(spec.Policy.Confidence)
		if err != nil {
			return nil, err
		}
		cell.AVFFI = fres.AVF()
		cell.AVFFILo = lo
		cell.AVFFIHi = hi
		cell.Injections = fres.Injections
		cell.Outcomes = fres.Outcomes
	}
	if spec.Estimator.ace() {
		if fres.AVFACE == nil {
			return nil, fmt.Errorf("experiment: %s/%s/%s: the golden run has no AVF-ACE", pc.Chip.Name, pc.Benchmark.Name, pc.Structure)
		}
		cell.AVFACE = *fres.AVFACE
	}
	if spec.Metrics.FIT {
		cell.FIT = metrics.FIT(cellAVF(spec, cell), pc.Chip.StructBits(pc.Structure), spec.Metrics.RawFITPerMbit)
	}
	return cell, nil
}

// cellAVF picks the AVF entering derived metrics: FI when measured (the
// paper's FIT_GPU uses the injection AVFs), ACE otherwise.
func cellAVF(spec Spec, c *Cell) float64 {
	if spec.Estimator.fi() {
		return c.AVFFI
	}
	return c.AVFACE
}

// assembleEPF combines every structure's FI AVF of each (chip,
// benchmark) into the EPF table, with Fig. 3's pinned arithmetic: cycles
// from the first structure's golden run, FIT summed in structure-axis
// order.
func assembleEPF(spec Spec, p *Plan, cells map[[3]int]*Cell) (*EPFTable, error) {
	tbl := &EPFTable{Rows: make([][]*EPFRow, len(p.Benchmarks))}
	for bi, b := range p.Benchmarks {
		tbl.Rows[bi] = make([]*EPFRow, len(p.Chips))
		for ci, c := range p.Chips {
			row := &EPFRow{Chip: c.Name, Benchmark: b.Name, Cycles: cells[[3]int{bi, ci, 0}].Cycles}
			var structAVFs []metrics.StructureAVF
			for si, st := range spec.Structures {
				avf := cells[[3]int{bi, ci, si}].AVFFI
				structAVFs = append(structAVFs, metrics.StructureAVF{Structure: st, AVF: avf, Bits: c.StructBits(st)})
				switch st {
				case gpu.RegisterFile:
					row.RegAVF = avf
				case gpu.LocalMemory:
					row.LocalAVF = avf
				}
			}
			var err error
			if row.Seconds, err = metrics.ExecSeconds(row.Cycles, c.ClockGHz); err != nil {
				return nil, err
			}
			// All-zero AVFs with small samples have an infinite EPF,
			// which the row reports as 0.
			if epf, err := metrics.EPF(row.Cycles, c.ClockGHz, spec.Metrics.RawFITPerMbit, structAVFs); err == nil {
				row.EPF = epf
			}
			tbl.Rows[bi][ci] = row
		}
	}
	return tbl, nil
}

// assembleProtection evaluates every protection what-if of the spec
// against every (benchmark, chip) of the grid, splitting the measured
// outcomes into SDC and DUE components per structure.
func assembleProtection(spec Spec, p *Plan, cells map[[3]int]*Cell) ([]*ProtectionRow, error) {
	var rows []*ProtectionRow
	for _, cfg := range spec.Metrics.Protection {
		for bi, b := range p.Benchmarks {
			for ci, c := range p.Chips {
				study := protect.Study{
					ClockGHz:      c.ClockGHz,
					RawFITPerMbit: spec.Metrics.RawFITPerMbit,
				}
				for si := range spec.Structures {
					cell := cells[[3]int{bi, ci, si}]
					n := float64(cell.Injections)
					if n == 0 {
						return nil, fmt.Errorf("experiment: protection %q needs FI outcomes for %s/%s/%s", cfg.Name, c.Name, b.Name, cell.Structure)
					}
					study.Cycles = cell.Cycles
					study.Structures = append(study.Structures, protect.StructureMeasurement{
						Structure: cell.Structure,
						SDCAVF:    float64(cell.Outcomes[gpu.OutcomeSDC]) / n,
						DUEAVF:    float64(cell.Outcomes[gpu.OutcomeDUE]+cell.Outcomes[gpu.OutcomeTimeout]) / n,
						Bits:      c.StructBits(cell.Structure),
					})
				}
				pres, err := protect.Evaluate(study, cfg.Schemes)
				if err != nil {
					return nil, fmt.Errorf("experiment: protection %q on %s/%s: %w", cfg.Name, c.Name, b.Name, err)
				}
				rows = append(rows, &ProtectionRow{Config: cfg.Name, Chip: c.Name, Benchmark: b.Name, Result: *pres})
			}
		}
	}
	return rows, nil
}
