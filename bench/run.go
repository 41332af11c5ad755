package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// runCfg is one run of one workload.
type runCfg struct {
	workload string
	seed     uint64
	window   time.Duration // how long the measured repetitions go on
	trace    bool
	traceOut string // Chrome-trace file of a traced run
	sz       sizes
	toy      bool   // sz is toySizes
	dir      string // scratch directory, inside the checkout
	// host normalises every measured time to the calm reference host.
	host *hostMeter
	// warmStore, on figures_cold, is childMode.WarmStore: figures_warm sets
	// its store up by running figures_cold in a child process.
	warmStore string
}

// WorkloadReport is everything one run of one workload measured.
type WorkloadReport struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	Sizes    sizes   `json:"sizes"`
	// Reps counts the measured units behind every median.
	Reps int `json:"reps"`
	// FixedWork says seed and sizes fix the work of a repetition, so that
	// its counts repeat exactly; fleet_load's clients submit for as long
	// as the window lasts.
	FixedWork bool `json:"fixed_work"`
	// UnitWall is the wall time of every measured unit, in order, and
	// SetupWall that of every set-up performance, in seconds of the calm
	// reference host; the Raw ones are the same as the clock read them.
	UnitWall     []float64 `json:"unit_wall_s"`
	SetupWall    []float64 `json:"setup_wall_s"`
	UnitRawWall  []float64 `json:"unit_wall_raw_s"`
	SetupRawWall []float64 `json:"setup_wall_raw_s"`
	// FreshJobs, on fleet_load, is how many first-time submissions the
	// latency and throughput figures rest on.
	FreshJobs int `json:"fresh_jobs,omitempty"`
	// Attempted and Failed count operations and checks: cells, jobs,
	// HTTP calls, exact-counter and byte-identity comparisons.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// EndToEnd holds the metrics a user of the system sees, measured
	// with tracing off.
	EndToEnd map[string]Summary `json:"end_to_end"`
	// Exact holds counts that repeat bit for bit at a fixed seed and
	// fixed sizes; two reports of one commit must agree on all of them.
	Exact map[string]int64 `json:"exact"`
	// Outputs holds digests of what the program answered (figure JSON,
	// outcome vectors); equal seeds and sizes must give equal digests.
	Outputs map[string]string `json:"outputs"`
	// Layers holds the per-layer metrics of a traced run.
	Layers    map[string]Summary `json:"layers,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`

	// mixedSeeds marks a set of runs (readRuns) that were not all at one
	// seed, so that its exact counts compare with nothing.
	mixedSeeds bool
}

func newReport(cfg runCfg) *WorkloadReport {
	return &WorkloadReport{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.window.Seconds(), Traced: cfg.trace,
		FixedWork: cfg.workload != "fleet_load",
		Sizes:     cfg.sz, EndToEnd: map[string]Summary{}, Exact: map[string]int64{}, Outputs: map[string]string{},
	}
}

// check counts one operation or comparison and records a violation.
func (r *WorkloadReport) check(ok bool, format string, args ...any) bool {
	r.Attempted++
	if !ok {
		r.Failed++
		if len(r.Failures) < 20 {
			r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// exact records a count that must repeat, and checks it against an
// earlier repetition of this run if there was one.
func (r *WorkloadReport) exact(name string, v int64) {
	if old, seen := r.Exact[name]; seen {
		r.check(old == v, "%s: %d in this repetition, %d before", name, v, old)
		return
	}
	r.Exact[name] = v
}

// output records a digest that must repeat, the same way.
func (r *WorkloadReport) output(name, digest string) {
	if old, seen := r.Outputs[name]; seen {
		r.check(old == digest, "%s: output differs between repetitions (%s vs %s)", name, digest, old)
		return
	}
	r.Outputs[name] = digest
}

// finish turns the measured units and the set-up performances into the
// end-to-end metrics. Every time is in seconds of the calm reference host
// (host.go); the *_raw_s metrics are the same times as the clock read
// them, and host_slowdown is the factor between the two.
func (r *WorkloadReport) finish(units, setups []unit, peakRSSMiB float64) {
	var wall, cpu, rate, rawWall, rawCPU, slow []float64
	for _, u := range units {
		wall = append(wall, u.normWall)
		cpu = append(cpu, u.normCPU)
		rate = append(rate, float64(u.cells)/u.normWall)
		rawWall = append(rawWall, u.wall)
		rawCPU = append(rawCPU, u.cpu)
		slow = append(slow, u.slowdown())
	}
	var setup, rawSetup []float64
	for _, u := range setups {
		setup = append(setup, u.normWall)
		rawSetup = append(rawSetup, u.wall)
	}
	r.Reps = len(units)
	r.UnitWall, r.UnitRawWall = wall, rawWall
	r.SetupWall, r.SetupRawWall = setup, rawSetup
	r.EndToEnd["setup_s"] = summarize("s", setup)
	r.EndToEnd["wall_s"] = summarize("s", wall)
	r.EndToEnd["cpu_s"] = summarize("s", cpu)
	r.EndToEnd["cells_per_s"] = summarize("1/s", rate)
	r.EndToEnd["setup_raw_s"] = summarize("s", rawSetup)
	r.EndToEnd["wall_raw_s"] = summarize("s", rawWall)
	r.EndToEnd["cpu_raw_s"] = summarize("s", rawCPU)
	r.EndToEnd["host_slowdown"] = summarize("x", slow)
	r.EndToEnd["peak_rss_mib"] = single("MiB", peakRSSMiB)
	if inj := r.Exact["finject.injections"]; inj > 0 {
		r.EndToEnd["sim_cycles_per_injection"] = single("cycles", float64(r.Exact["finject.sim_cycles"])/float64(inj))
	}
	r.EndToEnd["failed_share"] = single("share", float64(r.Failed)/float64(max(r.Attempted, 1)))
}

// repeat measures body at least minReps times and until the window is
// over, each repetition between samples of the host's speed (body may
// split a long repetition with h.split). One process runs all repetitions
// of a run: a fresh process per repetition spends most of its time
// faulting in a new heap, which on this class of sandbox costs 5 to 25 µs
// a page and did not repeat within a quarter (see README).
func repeat(h *hostMeter, minReps int, window time.Duration, body func() (cells int, err error)) ([]unit, error) {
	var units []unit
	start := time.Now()
	for len(units) < minReps || time.Since(start) < window {
		h.begin(len(units) > 0)
		cells, err := body()
		if err != nil {
			return nil, err
		}
		units = append(units, h.end(cells))
	}
	return units, nil
}

// selfCPU is this process's user+sys time in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// selfPeakRSSMiB is this process's resident-set high-water mark. Linux
// reports ru_maxrss in KiB.
func selfPeakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// timeSetups performs set-up sz.Setups times and returns how long each
// took. A set-up performance is everything from nothing to the first
// result: building the inputs and one unmeasured repetition, in which
// caches fill and lazy initialisation happens, so that work moved out of
// the measured repetitions into either shows in setup_s. The measured
// repetitions start after the last one, warm. drop, if not nil, lets go
// of what the previous performance built.
func timeSetups(h *hostMeter, sz sizes, drop func(), setup func() error) ([]unit, error) {
	var units []unit
	for len(units) < sz.Setups {
		// What the previous performance built is garbage now; left
		// uncollected it would count towards this run's peak memory.
		if drop != nil {
			drop()
		}
		runtime.GC()
		h.begin(false)
		if err := setup(); err != nil {
			return nil, err
		}
		units = append(units, h.end(0))
	}
	return units, nil
}

// timed runs f and returns how long it took, in seconds.
func timed(f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0).Seconds(), err
}

// runWorkload dispatches one run.
func runWorkload(cfg runCfg) (*WorkloadReport, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	// At toy size a reference sample is 2 ms, not 100.
	scale := 1.0
	if cfg.toy {
		scale = 0.02
	}
	cfg.host = newHostMeter(scale, selfCPU)
	switch cfg.workload {
	case "figures_cold", "figures_warm":
		return runFigures(cfg)
	case "inject_deep":
		return runDeep(cfg)
	case "fleet_load":
		return runFleet(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
}
