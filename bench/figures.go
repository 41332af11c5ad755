package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/finject"
	"repro/internal/report"
)

// figuresRun is one run of figures_cold or figures_warm: the paper's
// three figure specs through one experiment.Runner over one scheduler
// with the in-process executor and a binary disk store.
type figuresRun struct {
	cfg    runCfg
	rep    *WorkloadReport
	specs  []experiment.Spec
	expect figureExpect
	warm   bool
	store  string // the warm store, or the last cold repetition's store
	nth    int
}

func runFigures(cfg runCfg) (*WorkloadReport, error) {
	f := &figuresRun{cfg: cfg, rep: newReport(cfg), warm: cfg.workload == "figures_warm"}

	// Set-up: the specs, their expected cell counts and one unmeasured
	// pass. Warm: before those the store, filled by figures_cold's set-up
	// in a process of its own (its 2 GB heap must not count as this
	// workload's memory); each of its cold passes goes into one set-up
	// sample here.
	var coldPasses, coldRaw []float64
	if f.warm {
		f.store = filepath.Join(cfg.dir, "warm.store")
		cold, err := runSelf(cfg, "figures_cold", childMode{Toy: cfg.toy, WarmStore: f.store})
		if err != nil {
			return nil, fmt.Errorf("warming the store: %w", err)
		}
		f.rep.check(cold.Failed == 0, "warming the store: %d of %d checks failed: %v", cold.Failed, cold.Attempted, cold.Failures)
		// Warm figures must be byte-identical to the cold ones.
		f.rep.Outputs["figures_sha256"] = cold.Outputs["figures_sha256"]
		coldPasses, coldRaw = cold.SetupWall, cold.SetupRawWall
	}
	setups, err := timeSetups(cfg.host, cfg.sz, nil, func() (err error) {
		if f.specs, err = figureSpecs(cfg.sz, cfg.seed); err != nil {
			return err
		}
		if f.expect, err = expectFigures(f.specs); err != nil {
			return err
		}
		_, err = f.pass(nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	if f.warm {
		if len(coldPasses) != len(setups) || len(coldRaw) != len(setups) {
			return nil, fmt.Errorf("warming the store: %d cold passes for %d set-ups", len(coldPasses), len(setups))
		}
		for i := range setups {
			setups[i].normWall += coldPasses[i]
			setups[i].wall += coldRaw[i]
		}
	}

	minReps, window := cfg.sz.MinReps, cfg.window
	if cfg.warmStore != "" {
		// Filling figures_warm's store: the set-up's cold passes are all
		// that is wanted.
		minReps, window = 0, 0
	}
	units, err := repeat(cfg.host, minReps, window, func() (int, error) { return f.pass(nil) })
	if err != nil {
		return nil, err
	}
	peak := selfPeakRSSMiB() // before the traced run's probes add theirs
	if cfg.trace {
		tr := newTracer()
		cfg.host.coarse = true
		traced, err := repeat(cfg.host, cfg.sz.MinReps, 0, func() (int, error) { return f.pass(tr) })
		if err != nil {
			return nil, err
		}
		if err := addLayers(f.rep, cfg, tr, "bench.rep", units, traced, f.specs); err != nil {
			return nil, err
		}
	}
	if !f.warm && cfg.warmStore != "" {
		if err := os.Rename(f.store, cfg.warmStore); err != nil {
			return nil, err
		}
	}
	f.rep.finish(units, setups, peak)
	return f.rep, nil
}

// pass regenerates the three figures once and checks what came out.
// Cold passes start from a store file that does not exist; warm passes
// reopen the one set-up left.
func (f *figuresRun) pass(tr *tracer) (cells int, err error) {
	ctx := context.Background()
	root := tr.begin("bench.rep", f.cfg.workload, -1)
	defer tr.end(root)

	path := f.store
	if !f.warm {
		f.nth++
		path = filepath.Join(f.cfg.dir, fmt.Sprintf("cold-%d.store", f.nth))
		if f.store != "" {
			os.Remove(f.store) // the previous repetition's
		}
		f.store = path
	}
	before := scrapeSelf()

	s := tr.begin("campaign.store_open", "", root)
	st, err := campaign.OpenStore(path, campaign.FormatBinary)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	sum, err := f.figures(ctx, tr, root, st)
	s = tr.begin("campaign.store_close", "", root)
	cerr := st.Close()
	tr.end(s)
	if err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}

	d := scrapeSelf().delta(before)
	want := f.expect
	if f.warm {
		want.Runs, want.Hits, want.Goldens, want.Injections = 0, want.Cells, 0, 0
	}
	f.rep.Attempted += want.Cells
	got := figureExpect{
		Cells:      want.Cells,
		Runs:       int(d["fi_sched_cell_runs_total"]),
		Hits:       int(d["fi_sched_cache_hits_total"] + d["fi_sched_joins_total"]),
		Goldens:    int(d["fi_sched_golden_cache_misses_total"]),
		Injections: int(d["fi_inject_injections_total"]),
	}
	f.rep.check(got == want, "scheduler counters %+v, want %+v", got, want)
	f.rep.output("figures_sha256", sum)
	f.rep.exact("finject.injections", int64(got.Injections))
	f.rep.exact("finject.sim_cycles", int64(d["fi_inject_sim_cycles_total"]))
	f.rep.exact("campaign.cell_runs", int64(got.Runs))
	f.rep.exact("campaign.cache_hits", int64(got.Hits))
	f.rep.exact("campaign.golden_runs", int64(got.Goldens))
	return want.Cells, nil
}

// figures runs the three specs over the open store and returns the
// SHA-256 of the rendered figure JSON.
func (f *figuresRun) figures(ctx context.Context, tr *tracer, root int, st campaign.Store) (string, error) {
	store := st
	var exec campaign.Executor = campaign.NewLocalExecutor()
	parent := &atomic.Int64{}
	if tr != nil {
		store = &tracedStore{Store: st, tr: tr, parent: parent}
		exec = &tracedExecutor{Executor: exec, tr: tr, parent: parent}
	}
	runner := &experiment.Runner{Scheduler: campaign.New(campaign.Config{Store: store, Executor: exec})}

	h := sha256.New()
	for i, spec := range f.specs {
		if i > 0 {
			f.cfg.host.split()
		}
		s := tr.begin("experiment.run", spec.Name, root)
		parent.Store(int64(s))
		res, err := runner.Run(ctx, spec)
		tr.end(s)
		if err != nil {
			return "", err
		}
		s = tr.begin("report.render", spec.Name, root)
		err = report.WriteExperimentJSON(h, res)
		tr.end(s)
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// tracedStore and tracedExecutor put the benchmark's spans on the two
// interfaces the scheduler lets a caller supply, which makes the store
// and the injection engine visible inside Runner.Run without a change
// to the program.
type tracedStore struct {
	campaign.Store
	tr     *tracer
	parent *atomic.Int64
}

func (s *tracedStore) Get(key campaign.CellKey) (*finject.Result, bool, error) {
	sp := s.tr.begin("campaign.store_get", string(key), int(s.parent.Load()))
	defer s.tr.end(sp)
	return s.Store.Get(key)
}

func (s *tracedStore) Put(key campaign.CellKey, res *finject.Result) error {
	sp := s.tr.begin("campaign.store_put", string(key), int(s.parent.Load()))
	defer s.tr.end(sp)
	return s.Store.Put(key, res)
}

type tracedExecutor struct {
	campaign.Executor
	tr     *tracer
	parent *atomic.Int64
}

func (e *tracedExecutor) Execute(ctx context.Context, req campaign.Request) (*finject.Result, error) {
	sp := e.tr.begin("campaign.execute", string(req.Key), int(e.parent.Load()))
	defer e.tr.end(sp)
	return e.Executor.Execute(ctx, req)
}
