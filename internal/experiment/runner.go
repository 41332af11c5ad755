package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/ace"
	"repro/internal/campaign"
	"repro/internal/chips"
	"repro/internal/devices"
	"repro/internal/finject"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/protect"
	"repro/internal/workloads"
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
	// carried it; nil for a failed cell and for the ACE-only estimator,
	// which runs no campaign.
	Result *finject.Result
	// Cached is true when the cell was served without running a
	// campaign (store hit, join, or the ACE-only estimator).
	Cached bool
	// Done and Total count completed grid cells.
	Done, Total int
	// Err is the cell's failure, if any (the run is being canceled).
	Err error
}

// Runner executes compiled experiment plans over a campaign.Scheduler.
// Any executor tier behind the scheduler works — in-process, a shared
// disk store, or a remote fiworker fleet — and produces byte-identical
// results, by the determinism contract of the injection engine. A Runner
// keeps no state between plans: what one plan measures is cached by the
// scheduler's store, or, for a traced ACE run, made again by the next.
type Runner struct {
	// Scheduler executes and caches the FI campaigns; a private
	// in-process scheduler is created per run when nil.
	Scheduler *campaign.Scheduler
	// OnCell, when non-nil, receives per-cell progress as the run
	// streams. It is called from scheduler and ACE worker goroutines, one
	// call at a time.
	OnCell func(Progress)
}

// aceRun is what one traced run measures.
type aceRun struct {
	reg, local float64
	stats      gpu.RunStats
}

// Run compiles and executes one spec.
func (r *Runner) Run(ctx context.Context, s Spec) (*Result, error) {
	p, err := s.Compile()
	if err != nil {
		return nil, err
	}
	return r.RunPlan(ctx, p)
}

// RunPlan executes a compiled plan: the FI campaigns of every cell run
// as one scheduler batch (deduplicated, cached, concurrency-bounded),
// then the grid tables, averages and derived metrics assemble from the
// warm store with the figures' pinned arithmetic.
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

	// Phase 1: the statistical campaigns, as one batch (deduplicated,
	// cached and concurrency-bounded by the scheduler).
	var fiResults []*finject.Result
	if spec.Estimator.fi() {
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
		var err error
		fiResults, err = sched.RunBatch(ctx, batch, onCell)
		if err != nil {
			return nil, err
		}
	}

	// Phase 2: the traced ACE runs of the cells whose FI result carries no
	// AVF-ACE — all of them under the ACE-only estimator, none in a
	// figure pass unless the store predates the field — then the
	// per-structure tables from the batch results. With no traced run
	// left to notice a cancel after the batch, check for it here.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var pairRuns map[[2]string]*aceRun
	if spec.Estimator.ace() {
		var traced []int
		for i := range p.Cells {
			if fiResults == nil || fiResults[i].AVFACE == nil {
				traced = append(traced, i)
			}
		}
		var err error
		if pairRuns, err = r.runACE(ctx, p, traced); err != nil {
			return nil, err
		}
	}
	cells := make(map[[3]int]*Cell, len(p.Cells))
	for i, pc := range p.Cells {
		var fres *finject.Result
		if fiResults != nil {
			fres = fiResults[i]
		}
		cell, err := measureCell(spec, pc, fres, pairRuns[aceKey(pc)])
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

	// Phase 3: derived metrics.
	if spec.Metrics.EPF {
		epf, err := assembleEPF(spec, p, fiResults)
		if err != nil {
			return nil, err
		}
		res.EPF = epf
	}
	if len(spec.Metrics.Protection) > 0 {
		rows, err := assembleProtection(spec, p, cells)
		if err != nil {
			return nil, err
		}
		res.Protection = rows
	}
	return res, nil
}

// aceKey names the (benchmark, chip) pair of a cell.
func aceKey(pc PlannedCell) [2]string {
	return [2]string{pc.Benchmark.Name, pc.Chip.Name}
}

// runACE makes the traced run of each (benchmark, chip) pair of the
// plan's cells at the given indices: ACE is a deterministic function of
// the pair and one run yields both structures' AVFs, so a plan traces
// each pair once. GOMAXPROCS workers take the pairs in plan order; under
// the ACE-only estimator a cell reports its Progress when its pair's run
// lands. A traced run is a full simulation, so each worker checks ctx
// before starting one, and a canceled experiment stops instead of
// simulating the rest of the grid. The first failure in plan order is
// returned.
func (r *Runner) runACE(ctx context.Context, p *Plan, cells []int) (map[[2]string]*aceRun, error) {
	var keys [][2]string
	cellsOf := make(map[[2]string][]int)
	for _, i := range cells {
		k := aceKey(p.Cells[i])
		if cellsOf[k] == nil {
			keys = append(keys, k)
		}
		cellsOf[k] = append(cellsOf[k], i)
	}
	runs := make([]*aceRun, len(keys))
	errs := make([]error, len(keys))
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		mu     sync.Mutex // serializes OnCell
		done   int
	)
	for range min(runtime.GOMAXPROCS(0), len(keys)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && !failed.Load() {
				j := int(next.Add(1)) - 1
				if j >= len(keys) {
					return
				}
				pc := p.Cells[cellsOf[keys[j]][0]]
				if runs[j], errs[j] = measureACE(pc.Chip, pc.Benchmark); errs[j] != nil {
					errs[j] = fmt.Errorf("experiment: ACE run %s/%s: %w", pc.Chip.Name, pc.Benchmark.Name, errs[j])
					failed.Store(true)
					return
				}
				if p.Spec.Estimator.fi() || r.OnCell == nil {
					continue
				}
				mu.Lock()
				for _, i := range cellsOf[keys[j]] {
					done++
					r.OnCell(Progress{
						Index: i, Cell: p.Cells[i], Spec: campaign.SpecOf(p.Cells[i].Campaign), Cached: true,
						Done: done, Total: len(p.Cells),
					})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out := make(map[[2]string]*aceRun, len(keys))
	for j, k := range keys {
		// Workers claim pairs in plan order, so every pair before a
		// failure was run; a pair left unrun after none means ctx ended.
		if errs[j] != nil {
			return nil, errs[j]
		}
		if runs[j] == nil {
			return nil, ctx.Err()
		}
		out[k] = runs[j]
	}
	return out, nil
}

// measureCell measures one grid cell under the spec's estimator: the FI
// result comes from the phase-1 batch, the AVF-ACE from it too when it
// carries one and from the pair's traced run otherwise.
func measureCell(spec Spec, pc PlannedCell, fres *finject.Result, run *aceRun) (*Cell, error) {
	cell := &Cell{
		Chip:      pc.Chip.Name,
		Benchmark: pc.Benchmark.Name,
		Structure: pc.Structure,
	}
	if spec.Estimator.fi() {
		lo, hi, err := fres.AVFInterval(spec.Policy.Confidence)
		if err != nil {
			return nil, err
		}
		cell.AVFFI = fres.AVF()
		cell.AVFFILo = lo
		cell.AVFFIHi = hi
		cell.Occupancy = fres.Occupancy
		cell.Cycles = fres.GoldenStats.Cycles
		cell.Injections = fres.Injections
		cell.Outcomes = fres.Outcomes
	}
	if spec.Estimator.ace() && fres != nil && fres.AVFACE != nil {
		cell.AVFACE = *fres.AVFACE
	} else if spec.Estimator.ace() {
		cell.AVFACE = run.reg
		if pc.Structure == gpu.LocalMemory {
			cell.AVFACE = run.local
		}
		cell.Cycles = run.stats.Cycles
		if !spec.Estimator.fi() {
			total := int64(pc.Chip.Units) * int64(pc.Chip.StructSize(pc.Structure))
			cell.Occupancy = run.stats.Occupancy(pc.Structure, total)
		}
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

// tracedRuns counts the traced runs measureACE has started.
var tracedRuns atomic.Int64

// measureACE runs the single-pass lifetime analysis of one (chip,
// benchmark) pair.
func measureACE(chip *chips.Chip, bench *workloads.Benchmark) (*aceRun, error) {
	tracedRuns.Add(1)
	d, err := devices.Acquire(chip)
	if err != nil {
		return nil, err
	}
	defer devices.Release(chip, d)
	hp, err := bench.New(chip.Vendor)
	if err != nil {
		return nil, err
	}
	reg, local, st, err := ace.Measure(d, hp)
	return &aceRun{reg: reg, local: local, stats: st}, err
}

// assembleEPF combines every structure's FI campaign of each (chip,
// benchmark) into the EPF table, with Fig. 3's pinned
// arithmetic: cycles from the first structure's golden run, FIT summed
// in structure-axis order.
func assembleEPF(spec Spec, p *Plan, fiResults []*finject.Result) (*EPFTable, error) {
	nChips, nStructs := len(p.Chips), len(spec.Structures)
	tbl := &EPFTable{}
	tbl.Rows = make([][]*EPFRow, len(p.Benchmarks))
	for bi, b := range p.Benchmarks {
		tbl.Rows[bi] = make([]*EPFRow, len(p.Chips))
		for ci, c := range p.Chips {
			avfs := make(map[gpu.Structure]*finject.Result, nStructs)
			for si, st := range spec.Structures {
				avfs[st] = fiResults[(bi*nChips+ci)*nStructs+si]
			}
			cycles := avfs[spec.Structures[0]].GoldenStats.Cycles
			secs, err := metrics.ExecSeconds(cycles, c.ClockGHz)
			if err != nil {
				return nil, err
			}
			var structAVFs []metrics.StructureAVF
			for _, st := range spec.Structures {
				structAVFs = append(structAVFs, metrics.StructureAVF{
					Structure: st, AVF: avfs[st].AVF(), Bits: c.StructBits(st),
				})
			}
			epf, err := metrics.EPF(cycles, c.ClockGHz, spec.Metrics.RawFITPerMbit, structAVFs)
			if err != nil {
				// All-zero AVFs with small samples: report infinite EPF
				// as 0 with the condition preserved in the row for the
				// renderer.
				epf = 0
			}
			row := &EPFRow{
				Chip:      c.Name,
				Benchmark: b.Name,
				EPF:       epf,
				Seconds:   secs,
				Cycles:    cycles,
			}
			for _, st := range spec.Structures {
				switch st {
				case gpu.RegisterFile:
					row.RegAVF = avfs[st].AVF()
				case gpu.LocalMemory:
					row.LocalAVF = avfs[st].AVF()
				}
			}
			tbl.Rows[bi][ci] = row
		}
	}
	return tbl, nil
}

// schemeByName resolves a protection scheme name.
func schemeByName(name string) (protect.Scheme, error) {
	switch name {
	case "", "none":
		return protect.None, nil
	case "parity":
		return protect.Parity, nil
	case "secded":
		return protect.SECDED, nil
	default:
		return 0, fmt.Errorf("experiment: unknown protection scheme %q (want none, parity or secded)", name)
	}
}

// assembleProtection evaluates every protection what-if of the spec
// against every (benchmark, chip) of the grid, splitting the measured
// outcomes into SDC and DUE components per structure.
func assembleProtection(spec Spec, p *Plan, cells map[[3]int]*Cell) ([]*ProtectionRow, error) {
	var rows []*ProtectionRow
	for _, cfg := range spec.Metrics.Protection {
		var pcfgs []protect.Config
		for _, sc := range cfg.Schemes {
			scheme, err := schemeByName(sc.Scheme)
			if err != nil {
				return nil, err
			}
			perf := -1.0
			if sc.PerfOverhead != nil {
				perf = *sc.PerfOverhead
			}
			pcfgs = append(pcfgs, protect.Config{Structure: sc.Structure, Scheme: scheme, PerfOverhead: perf})
		}
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
				pres, err := protect.Evaluate(study, pcfgs)
				if err != nil {
					return nil, fmt.Errorf("experiment: protection %q on %s/%s: %w", cfg.Name, c.Name, b.Name, err)
				}
				rows = append(rows, &ProtectionRow{
					Config:    cfg.Name,
					Chip:      c.Name,
					Benchmark: b.Name,
					EPF:       pres.EPF,
					SDCFIT:    pres.SDCFIT,
					DUEFIT:    pres.DUEFIT,
					Slowdown:  pres.Slowdown,
					ExtraBits: pres.ExtraBits,
				})
			}
		}
	}
	return rows, nil
}
