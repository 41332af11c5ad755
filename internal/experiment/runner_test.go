package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/finject"
	"repro/internal/gpu"
	"repro/internal/telemetry"
)

// miniSpec is a fast two-chip grid over the mini devices.
func miniSpec() Spec {
	return Spec{
		Chips:      []string{"Mini NVIDIA", "Mini AMD"},
		Benchmarks: []string{"vectoradd", "transpose"},
		Structures: []gpu.Structure{gpu.RegisterFile, gpu.LocalMemory},
		Estimator:  EstimatorFI,
		Injections: 40,
		Seed:       11,
	}
}

func TestRunnerGrid(t *testing.T) {
	t.Parallel()
	sched := campaign.New(campaign.Config{})
	var (
		mu     sync.Mutex
		events []Progress
	)
	r := &Runner{Scheduler: sched, OnCell: func(p Progress) {
		mu.Lock()
		events = append(events, p)
		mu.Unlock()
	}}
	res, err := r.Run(context.Background(), miniSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 2 {
		t.Fatalf("tables: %d, want 2", len(res.Tables))
	}
	for _, tbl := range res.Tables {
		if len(tbl.Cells) != 2 || len(tbl.Cells[0]) != 2 || len(tbl.Averages) != 2 {
			t.Fatalf("table %s shape: %dx%d avgs %d", tbl.Structure, len(tbl.Cells), len(tbl.Cells[0]), len(tbl.Averages))
		}
		for _, row := range tbl.Cells {
			for _, c := range row {
				if c.Injections != 40 || c.Cycles <= 0 {
					t.Fatalf("cell %+v", c)
				}
				if c.AVFACE != 0 {
					t.Fatalf("fi estimator produced an ACE AVF: %+v", c)
				}
			}
		}
	}
	if len(events) != 8 {
		t.Fatalf("progress events: %d, want 8", len(events))
	}
	last := events[len(events)-1]
	if last.Done != 8 || last.Total != 8 {
		t.Fatalf("final progress %d/%d", last.Done, last.Total)
	}

	// A second run over the same scheduler re-executes nothing.
	runs := sched.Stats().Runs
	if _, err := (&Runner{Scheduler: sched}).Run(context.Background(), miniSpec()); err != nil {
		t.Fatal(err)
	}
	if got := sched.Stats().Runs; got != runs {
		t.Fatalf("warm rerun executed %d campaigns", got-runs)
	}
}

func TestRunnerEstimators(t *testing.T) {
	t.Parallel()
	s := miniSpec()
	s.Chips = s.Chips[:1]
	s.Benchmarks = s.Benchmarks[:1]
	s.Structures = []gpu.Structure{gpu.RegisterFile}

	s.Estimator = EstimatorACE
	res, err := (&Runner{}).Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Tables[0].Cells[0][0]
	if c.Injections != 0 || c.AVFFI != 0 {
		t.Fatalf("ace estimator ran injections: %+v", c)
	}
	if c.AVFACE <= 0 || c.Cycles <= 0 || c.Occupancy <= 0 {
		t.Fatalf("ace estimator missing measurements: %+v", c)
	}

	s.Estimator = EstimatorBoth
	res, err = (&Runner{}).Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	c = res.Tables[0].Cells[0][0]
	if c.Injections != 40 || c.AVFACE <= 0 {
		t.Fatalf("both estimator: %+v", c)
	}
}

// TestRunnerProtectionSweep runs the new scenario the redesign exists
// for: a protection what-if sweep, straight from a JSON spec, producing
// post-protection EPF/FIT rows for every (config, benchmark, chip).
func TestRunnerProtectionSweep(t *testing.T) {
	t.Parallel()
	specJSON := `{
		"version": 1,
		"name": "mini-protection-sweep",
		"chips": ["Mini NVIDIA", "Mini AMD"],
		"benchmarks": ["matrixMul"],
		"structures": ["register-file", "local-memory"],
		"estimator": "fi",
		"injections": 60,
		"seed": 31,
		"metrics": {
			"fit": true,
			"epf": true,
			"protection": [
				{"name": "unprotected"},
				{"name": "parity-rf", "schemes": [{"structure": "register-file", "scheme": "parity"}]},
				{"name": "secded-all", "schemes": [
					{"structure": "register-file", "scheme": "secded"},
					{"structure": "local-memory", "scheme": "secded"}
				]}
			]
		}
	}`
	spec, err := Parse(strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Runner{}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.EPF == nil || len(res.EPF.Rows) != 1 || len(res.EPF.Rows[0]) != 2 {
		t.Fatalf("EPF table shape wrong: %+v", res.EPF)
	}
	if len(res.Protection) != 3*1*2 {
		t.Fatalf("protection rows: %d, want 6", len(res.Protection))
	}
	byConfig := map[string][]*ProtectionRow{}
	for _, row := range res.Protection {
		byConfig[row.Config] = append(byConfig[row.Config], row)
	}
	for _, name := range []string{"unprotected", "parity-rf", "secded-all"} {
		if len(byConfig[name]) != 2 {
			t.Fatalf("config %q has %d rows", name, len(byConfig[name]))
		}
	}
	for i := range byConfig["unprotected"] {
		base := byConfig["unprotected"][i]
		par := byConfig["parity-rf"][i]
		sec := byConfig["secded-all"][i]
		// Parity converts RF SDCs to DUEs; it can never increase SDC FIT.
		if par.SDCFIT > base.SDCFIT {
			t.Fatalf("parity raised SDC FIT: %+v vs %+v", par, base)
		}
		if par.Slowdown <= 0 || par.ExtraBits <= 0 {
			t.Fatalf("parity is free? %+v", par)
		}
		// Full SECDED removes all single-bit failures.
		if sec.SDCFIT != 0 || sec.DUEFIT != 0 || sec.EPF != 0 {
			t.Fatalf("secded-all left failures: %+v", sec)
		}
	}
	// FIT was requested: measured cells must carry it whenever faults
	// manifested.
	for _, tbl := range res.Tables {
		for _, row := range tbl.Cells {
			for _, c := range row {
				if c.AVFFI > 0 && c.FIT <= 0 {
					t.Fatalf("cell with AVF %v has no FIT: %+v", c.AVFFI, c)
				}
			}
		}
	}
	// The whole result must be JSON-serializable (it is the wire format
	// of POST /v1/experiments).
	if _, err := json.Marshal(res); err != nil {
		t.Fatal(err)
	}
}

// TestRunnerStopsWhenCanceled: an ACE-only cell is a full golden run
// per (chip, benchmark), so a canceled run must stop scheduling them like
// it stops FI campaigns — a canceled run neither simulates on nor comes
// back as a finished result.
func TestRunnerStopsWhenCanceled(t *testing.T) {
	t.Parallel()
	t.Run("ACE-only, canceled before it starts", func(t *testing.T) {
		s := miniSpec()
		s.Estimator = EstimatorACE
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		measured := 0
		res, err := (&Runner{OnCell: func(Progress) { measured++ }}).Run(ctx, s)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("canceled ACE-only run returned (%v, %v), want context.Canceled", res, err)
		}
		if measured != 0 {
			t.Fatalf("canceled ACE-only run still measured %d cells", measured)
		}
	})
	t.Run("ACE-only, canceled during the ACE phase", func(t *testing.T) {
		s := miniSpec()
		s.Estimator = EstimatorACE
		s.Benchmarks = nil // the whole suite: 20 pairs, 40 cells
		// Only the cells holding one of the workers' slots at the cancel
		// may still run; keep that under the grid's 20 pairs.
		const workers = 2
		sched := campaign.New(campaign.Config{Workers: workers})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var (
			measured    int
			goldenAtCut int64
		)
		r := &Runner{Scheduler: sched, OnCell: func(p Progress) {
			if p.Err != nil {
				return
			}
			if measured == 0 {
				goldenAtCut = sched.Stats().GoldenRuns
				cancel()
			}
			measured++
		}}
		res, err := r.Run(ctx, s)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("run canceled during its golden runs returned (%v, %v), want context.Canceled", res, err)
		}
		if measured == 0 || measured >= 40 {
			t.Fatalf("%d cells of 40 measured by a run canceled at its first", measured)
		}
		if after := sched.Stats().GoldenRuns - goldenAtCut; after > workers {
			t.Fatalf("%d golden runs after the cancel, want at most Workers = %d", after, workers)
		}
	})
	t.Run("both, canceled between the phases", func(t *testing.T) {
		s := miniSpec()
		s.Estimator = EstimatorBoth
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// The last cell reporting ends the batch; cancel right there.
		r := &Runner{OnCell: func(p Progress) {
			if p.Done == p.Total {
				cancel()
			}
		}}
		if res, err := r.Run(ctx, s); !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("run canceled after its batch returned (%v, %v), want context.Canceled", res, err)
		}
	})
}

// TestProgressIndexAndResult: a progress event names its cell by plan
// index and carries the campaign result the index's cell got.
func TestProgressIndexAndResult(t *testing.T) {
	t.Parallel()
	plan, err := miniSpec().Compile()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	r := &Runner{OnCell: func(p Progress) {
		if p.Index < 0 || p.Index >= len(plan.Cells) || seen[p.Index] {
			t.Errorf("progress index %d out of range or repeated", p.Index)
			return
		}
		seen[p.Index] = true
		if p.Spec != plan.CellSpecs()[p.Index] {
			t.Errorf("index %d reports spec %v, the plan has %v there", p.Index, p.Spec, plan.CellSpecs()[p.Index])
		}
		if p.Result == nil || p.Result.Injections != 40 {
			t.Errorf("index %d carries result %+v", p.Index, p.Result)
		}
	}}
	if _, err := r.RunPlan(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(plan.Cells) {
		t.Fatalf("%d of %d cells reported", len(seen), len(plan.Cells))
	}
}

// TestFiguresMeasureEachPairOnce: a figure pass reads every AVF-ACE off
// its campaigns' golden runs, so the three figure specs on a fresh store
// run their 80 distinct cells and nothing else. Served from a store whose
// records lack the field — one written before the golden run carried it
// — a figure under "both" fails naming its first cell, and the same
// figure under "fi" is served from the store without a run.
func TestFiguresMeasureEachPairOnce(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	store := campaign.NewMemoryStore(0)
	fresh := &Runner{Scheduler: campaign.New(campaign.Config{Store: store})}
	old := &Runner{Scheduler: campaign.New(campaign.Config{Store: withoutACE{store}})}
	for n := 1; n <= 3; n++ {
		spec, err := Figure(n)
		if err != nil {
			t.Fatal(err)
		}
		spec.Injections, spec.Seed = 2, 1
		if _, err := fresh.Run(ctx, spec); err != nil {
			t.Fatal(err)
		}
		if spec.Estimator == EstimatorBoth {
			plan, err := spec.Compile()
			if err != nil {
				t.Fatal(err)
			}
			pc := plan.Cells[0]
			cell := fmt.Sprintf("%s/%s/%s", pc.Chip.Name, pc.Benchmark.Name, pc.Structure)
			_, err = old.Run(ctx, spec)
			if err == nil || !strings.Contains(err.Error(), cell) || !strings.Contains(err.Error(), "before results carried it") {
				t.Fatalf("%s from records without AVF-ACE: error %v, want one naming %s and the old store", spec.Name, err, cell)
			}
			spec.Estimator = EstimatorFI
		}
		if _, err := old.Run(ctx, spec); err != nil {
			t.Fatalf("%s under fi from records without AVF-ACE: %v", spec.Name, err)
		}
	}
	if st := fresh.Scheduler.Stats(); st.Runs != 80 {
		t.Fatalf("%d cell runs for the three figures, want their 80 cells", st.Runs)
	}
	if st := old.Scheduler.Stats(); st.Runs != 0 || st.Injections != 0 {
		t.Fatalf("%d cell runs and %d injections from records without AVF-ACE, want every cell from the store", st.Runs, st.Injections)
	}
}

// withoutACE serves a store's results with AVFACE cleared, as a store
// written before results carried it would.
type withoutACE struct{ campaign.Store }

func (s withoutACE) Get(key campaign.CellKey) (*finject.Result, bool, error) {
	res, ok, err := s.Store.Get(key)
	if res != nil {
		stripped := *res
		stripped.AVFACE = nil
		res = &stripped
	}
	return res, ok, err
}

// TestRunnerSharedByConcurrentPlans: plans running on one Runner at the
// same time share nothing but the Runner's configuration: each, on a
// private scheduler, makes its own golden run of each of its pairs, once
// each, and all read the same bytes. (The golden-run counter is
// process-wide, so this test does not run in parallel.)
func TestRunnerSharedByConcurrentPlans(t *testing.T) {
	s := miniSpec()
	s.Estimator = EstimatorACE
	r := &Runner{}
	before := telemetry.GoldenCacheMisses.Value()
	var (
		wg   sync.WaitGroup
		docs [4][]byte
	)
	for i := range docs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := r.Run(context.Background(), s)
			if err != nil {
				t.Error(err)
				return
			}
			if docs[i], err = json.Marshal(res); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := telemetry.GoldenCacheMisses.Value() - before; n != 4*4 {
		t.Fatalf("%d golden runs for four plans of 2 chips x 2 benchmarks, want 4 per plan", n)
	}
	for i := 1; i < len(docs); i++ {
		if !bytes.Equal(docs[i], docs[0]) {
			t.Fatalf("plan %d's result differs from plan 0's", i)
		}
	}
}

// TestACETracesEachPairOnce: within one plan the cells of a (chip,
// benchmark) pair share one golden run, so an ACE-only plan over both
// structures makes one run per pair, not one per cell.
func TestACETracesEachPairOnce(t *testing.T) {
	t.Parallel()
	s := miniSpec()
	s.Estimator = EstimatorACE
	plan, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	pairs := make(map[[2]string]bool)
	for _, pc := range plan.Cells {
		pairs[[2]string{pc.Benchmark.Name, pc.Chip.Name}] = true
	}
	sched := campaign.New(campaign.Config{})
	if _, err := (&Runner{Scheduler: sched}).RunPlan(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	if n := sched.Stats().GoldenRuns; n != 4 || len(pairs) != 4 || len(plan.Cells) != 8 {
		t.Fatalf("%d golden runs for %d cells over %d pairs, want 4 for 8 over 4", n, len(plan.Cells), len(pairs))
	}
}

// TestACEProgressPerCell: under the ACE-only estimator every cell reports
// once, as its golden-only campaign lands, with Done counting 1..N and
// the campaign's result: no injection, and the AVF-ACE.
func TestACEProgressPerCell(t *testing.T) {
	t.Parallel()
	s := miniSpec()
	s.Estimator = EstimatorACE
	s.Benchmarks = nil // the whole suite: 20 pairs, 40 cells
	var (
		mu     sync.Mutex
		events []Progress
	)
	r := &Runner{OnCell: func(p Progress) {
		mu.Lock()
		events = append(events, p)
		mu.Unlock()
	}}
	res, err := r.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	total := len(res.Tables) * len(res.Benchmarks) * len(res.Chips)
	if len(events) != total {
		t.Fatalf("%d progress events for %d cells", len(events), total)
	}
	seen := make(map[int]bool)
	for i, p := range events {
		if p.Done != i+1 || p.Total != total || p.Err != nil ||
			p.Result == nil || p.Result.Injections != 0 || p.Result.AVFACE == nil {
			t.Fatalf("event %d: %+v", i, p)
		}
		if seen[p.Index] {
			t.Fatalf("cell %d reported twice", p.Index)
		}
		seen[p.Index] = true
	}
}

// TestACEOnlyServedFromStore: an ACE-only cell is a golden-only campaign,
// so a second run of the spec on the same scheduler is served from its
// store — no cell run and no golden run — and reads the same bytes.
func TestACEOnlyServedFromStore(t *testing.T) {
	t.Parallel()
	s := miniSpec()
	s.Estimator = EstimatorACE
	sched := campaign.New(campaign.Config{})
	r := &Runner{Scheduler: sched}
	var docs [2][]byte
	var stats [2]campaign.Stats
	for i := range docs {
		res, err := r.Run(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if docs[i], err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
		stats[i] = sched.Stats()
	}
	if stats[0].Runs != 8 || stats[0].GoldenRuns != 4 || stats[0].Injections != 0 {
		t.Fatalf("first pass: %+v, want 8 cell runs on 4 golden runs and no injection", stats[0])
	}
	if runs, goldens := stats[1].Runs-stats[0].Runs, stats[1].GoldenRuns-stats[0].GoldenRuns; runs != 0 || goldens != 0 {
		t.Fatalf("second pass made %d cell runs and %d golden runs, want 0 and 0", runs, goldens)
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Fatal("the second pass reads otherwise than the first")
	}
}

// TestACEOnlyCellsIgnoreSeed: an ACE-only cell's result depends on no
// seed, so a spec that differs only in its seed is served whole from the
// first one's cells: no cell run, no golden run, the same tables.
func TestACEOnlyCellsIgnoreSeed(t *testing.T) {
	t.Parallel()
	sched := campaign.New(campaign.Config{})
	r := &Runner{Scheduler: sched}
	var tables [2][]byte
	var stats [2]campaign.Stats
	for i, seed := range []uint64{1, 2} {
		s := miniSpec()
		s.Estimator, s.Seed = EstimatorACE, seed
		res, err := r.Run(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if tables[i], err = json.Marshal(res.Tables); err != nil {
			t.Fatal(err)
		}
		stats[i] = sched.Stats()
	}
	if runs, goldens := stats[1].Runs-stats[0].Runs, stats[1].GoldenRuns-stats[0].GoldenRuns; stats[0].Runs != 8 || runs != 0 || goldens != 0 {
		t.Fatalf("first seed %d cell runs (want 8), second seed %d cell runs and %d golden runs (want 0 and 0)", stats[0].Runs, runs, goldens)
	}
	if !bytes.Equal(tables[0], tables[1]) {
		t.Fatal("the second seed's tables read otherwise than the first's")
	}
}

// TestACEOnlyKeysApartFromFI: an ACE-only plan's cells key apart from
// the FI cells of the same grid, so neither serves the other from a store.
func TestACEOnlyKeysApartFromFI(t *testing.T) {
	t.Parallel()
	keys := make(map[campaign.CellKey]Estimator)
	for _, e := range []Estimator{EstimatorFI, EstimatorACE} {
		s := miniSpec()
		s.Estimator = e
		plan, err := s.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range plan.Keys() {
			if prev, dup := keys[k]; dup {
				t.Fatalf("the %s and %s plans share cell key %s", prev, e, k)
			}
			keys[k] = e
		}
	}
}
