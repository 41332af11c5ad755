package main

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/gpu"
)

// The four workloads, in the order a full run executes them
// (figures_warm reuses nothing of figures_cold: it warms its own store).
var workloadNames = []string{"figures_cold", "figures_warm", "inject_deep", "fleet_load"}

// sizes fixes how much work one repetition of each workload is. They are
// part of every report: two reports compare only at equal sizes.
type sizes struct {
	// FigChips is the chip axis of the three figure specs (nil: the
	// paper's four evaluated chips).
	FigChips []string `json:"fig_chips,omitempty"`
	// FigInjections is the per-cell fault budget of the figure specs.
	FigInjections int `json:"fig_injections"`
	// DeepCells are the inject_deep campaigns, DeepInjections each.
	DeepCells      []deepCell `json:"deep_cells"`
	DeepInjections int        `json:"deep_injections"`
	// FleetUnitJobs is how many jobs one client submits per measured
	// unit; every fifth repeats the client's previous spec.
	FleetUnitJobs   int `json:"fleet_unit_jobs"`
	FleetInjections int `json:"fleet_injections"`
	// LeaseTasks is how many tasks the lease-queue probe of a traced run
	// pushes through an in-process queue.
	LeaseTasks int `json:"lease_tasks"`
	// MinReps repetitions are measured even if the window is over.
	MinReps int `json:"min_reps"`
	// Setups is how many times set-up, with its one unmeasured
	// repetition, is performed and timed per run. The median of three
	// leaves out the first performance — the one that builds the binaries
	// and faults in a new heap, slower every time.
	Setups int `json:"setups"`
}

type deepCell struct {
	Chip      string        `json:"chip"`
	Benchmark string        `json:"benchmark"`
	Structure gpu.Structure `json:"structure"`
}

// fullSizes are the sizes BENCHMARK.json is recorded at. The issue sized
// the figures at 60 injections per cell and inject_deep at 2,000; the
// driver's time cap (92 runs inside 57 minutes) leaves room for neither
// with three repetitions per run, so, cutting injections per cell before
// the workload list, they are 10 and 250.
var fullSizes = sizes{
	FigInjections: 10,
	DeepCells: []deepCell{
		{"GeForce GTX 480", "matrixMul", gpu.RegisterFile},
		{"HD Radeon 7970", "matrixMul", gpu.LocalMemory},
	},
	DeepInjections:  250,
	FleetUnitJobs:   10,
	FleetInjections: 5,
	LeaseTasks:      2400,
	MinReps:         3,
	Setups:          3,
}

// toySizes exercise every code path of the harness in seconds: Mini
// chips, five injections, units of five fleet jobs. Their numbers mean nothing.
var toySizes = sizes{
	FigChips:      []string{"Mini NVIDIA", "Mini AMD"},
	FigInjections: 5,
	DeepCells: []deepCell{
		{"Mini NVIDIA", "matrixMul", gpu.RegisterFile},
		{"Mini AMD", "matrixMul", gpu.LocalMemory},
	},
	DeepInjections:  20,
	FleetUnitJobs:   5,
	FleetInjections: 5,
	LeaseTasks:      100,
	MinReps:         1,
	Setups:          1,
}

// figureSpecs builds the paper's three figures from the seed. The
// program under test sees only these specs.
func figureSpecs(sz sizes, seed uint64) ([]experiment.Spec, error) {
	specs := make([]experiment.Spec, 0, 3)
	for fig := 1; fig <= 3; fig++ {
		s, err := experiment.Figure(fig)
		if err != nil {
			return nil, err
		}
		s.Injections = sz.FigInjections
		s.Seed = seed
		if sz.FigChips != nil {
			s.Chips = sz.FigChips
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// figureExpect derives the exact scheduler counts one cold pass over the
// specs must show: every distinct cell key runs once, every other cell
// is served from the store, one golden run per (chip, benchmark) pair.
type figureExpect struct {
	Cells, Runs, Hits, Goldens, Injections int
}

func expectFigures(specs []experiment.Spec) (figureExpect, error) {
	var e figureExpect
	for _, s := range specs {
		p, err := s.Compile()
		if err != nil {
			return e, err
		}
		e.Cells += len(p.Cells)
	}
	distinct, err := distinctCells(specs)
	if err != nil {
		return e, err
	}
	pairs := map[[2]string]bool{}
	for _, pc := range distinct {
		e.Injections += pc.Campaign.Injections
		pairs[[2]string{pc.Chip.Name, pc.Benchmark.Name}] = true
	}
	e.Runs = len(distinct)
	e.Hits = e.Cells - e.Runs
	e.Goldens = len(pairs)
	return e, nil
}

// deepSpecs builds one single-cell spec per inject_deep cell. Compiled,
// each gives the campaign a figure of that cell would run: its seed
// derives from the run seed through experiment.CellSeed, so a different
// -seed samples different faults.
func deepSpecs(sz sizes, seed uint64) []experiment.Spec {
	specs := make([]experiment.Spec, 0, len(sz.DeepCells))
	for _, dc := range sz.DeepCells {
		specs = append(specs, experiment.Spec{
			Name:       fmt.Sprintf("deep %s/%s/%s", dc.Chip, dc.Benchmark, dc.Structure),
			Chips:      []string{dc.Chip},
			Benchmarks: []string{dc.Benchmark},
			Structures: []gpu.Structure{dc.Structure},
			Estimator:  experiment.EstimatorFI,
			Injections: sz.DeepInjections,
			Seed:       seed,
		}.Normalize())
	}
	return specs
}

// distinctCells compiles the specs and returns each distinct cell once,
// in plan order: the campaigns a cold run of the specs executes.
func distinctCells(specs []experiment.Spec) ([]experiment.PlannedCell, error) {
	var cells []experiment.PlannedCell
	seen := map[campaign.CellKey]bool{}
	for _, s := range specs {
		p, err := s.Compile()
		if err != nil {
			return nil, err
		}
		for _, pc := range p.Cells {
			if key := campaign.SpecOf(pc.Campaign).Key(); !seen[key] {
				seen[key] = true
				cells = append(cells, pc)
			}
		}
	}
	return cells, nil
}

// fleetBenchmarks are small kernels: on the Mini chips one cell of five
// injections simulates for about a millisecond, so the control plane,
// not the simulator, is what a fleet job costs.
var fleetBenchmarks = []string{"vectoradd", "transpose", "scan", "reduction"}

var fleetChips = []string{"Mini NVIDIA", "Mini AMD"}

// fleetSpec is job number job of one client: eight cells on one Mini
// chip, with a seed no other job of the run shares.
func fleetSpec(sz sizes, seed uint64, client, job int) experiment.Spec {
	return experiment.Spec{
		Name:       fmt.Sprintf("fleet-c%d-j%d", client, job),
		Chips:      []string{fleetChips[(client+job)%len(fleetChips)]},
		Benchmarks: fleetBenchmarks,
		Structures: []gpu.Structure{gpu.RegisterFile, gpu.LocalMemory},
		Estimator:  experiment.EstimatorFI,
		Injections: sz.FleetInjections,
		Seed:       splitmix(seed ^ uint64(client+1)<<32 ^ uint64(job+1)),
	}.Normalize()
}

// splitmix is the SplitMix64 finalizer: nearby inputs give unrelated
// outputs, and the result is never 0 (a zero spec seed means "default").
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		return 1
	}
	return x
}
