package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/finject"
	"repro/internal/gpu"
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
	spec, err := ParseBytes([]byte(specJSON))
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

// TestRunnerStopsWhenCanceled: the ACE phase is one full traced
// simulation per (chip, benchmark), so it must consult the context like
// the FI phase does — a canceled run neither simulates on nor comes back
// as a finished result.
func TestRunnerStopsWhenCanceled(t *testing.T) {
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
		// Two runs per worker fit before the cancel lands and after it;
		// keep that under the grid's 20 pairs.
		if runtime.GOMAXPROCS(0) > 8 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
		}
		procs := int64(runtime.GOMAXPROCS(0))
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var (
			r           *Runner
			events      int
			tracedAtCut int64
		)
		r = &Runner{OnCell: func(p Progress) {
			if events == 0 {
				tracedAtCut = tracedRuns.Load()
				cancel()
			}
			events++
		}}
		res, err := r.Run(ctx, s)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("run canceled in its ACE phase returned (%v, %v), want context.Canceled", res, err)
		}
		if events == 0 || events >= 40 {
			t.Fatalf("%d progress events of 40 from a run canceled at its first", events)
		}
		if after := tracedRuns.Load() - tracedAtCut; after > procs {
			t.Fatalf("%d traced runs started after the cancel, want at most GOMAXPROCS = %d", after, procs)
		}
	})
	t.Run("both, canceled between the phases", func(t *testing.T) {
		s := miniSpec()
		s.Estimator = EstimatorBoth
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// The last FI cell reporting ends phase 1; cancel right there.
		r := &Runner{OnCell: func(p Progress) {
			if p.Done == p.Total {
				cancel()
			}
		}}
		if res, err := r.Run(ctx, s); !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("run canceled before its ACE phase returned (%v, %v), want context.Canceled", res, err)
		}
	})
}

// TestProgressIndexAndResult: a progress event names its cell by plan
// index and carries the campaign result the index's cell got.
func TestProgressIndexAndResult(t *testing.T) {
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
// its campaigns' golden runs, so the three figure specs on a fresh Runner
// make no traced run. Served from a store whose records lack the field —
// one written before the golden run carried it — each figure traces each
// of its pairs once instead: 40 for Fig. 1 and 28 for Fig. 2 (a Runner
// keeps no traced run from one plan to the next; Fig. 3 is FI only), and
// every figure reads, byte for byte, as from the golden runs.
func TestFiguresMeasureEachPairOnce(t *testing.T) {
	ctx := context.Background()
	store := campaign.NewMemoryStore(0)
	fresh := &Runner{Scheduler: campaign.New(campaign.Config{Store: store})}
	old := &Runner{Scheduler: campaign.New(campaign.Config{Store: withoutACE{store}})}
	var traced [2]int64
	for n := 1; n <= 3; n++ {
		spec, err := Figure(n)
		if err != nil {
			t.Fatal(err)
		}
		spec.Injections, spec.Seed = 2, 1
		var docs [2][]byte
		for i, r := range []*Runner{fresh, old} {
			before := tracedRuns.Load()
			res, err := r.Run(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			traced[i] += tracedRuns.Load() - before
			if docs[i], err = json.Marshal(res); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(docs[0], docs[1]) {
			t.Fatalf("%s: the result from records without AVF-ACE differs from the golden runs'", spec.Name)
		}
	}
	if n := traced[0]; n != 0 {
		t.Fatalf("%d traced runs for the three figures, want 0", n)
	}
	if st := old.Scheduler.Stats(); st.Runs != 0 {
		t.Fatalf("the store without AVF-ACE ran %d campaigns, want every cell from the store", st.Runs)
	}
	if n := traced[1]; n != 40+28 {
		t.Fatalf("%d traced runs for the three figures from records without AVF-ACE, want 40+28", n)
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
// same time share nothing but the Runner's configuration: each traces
// its own pairs, once each, and all read the same bytes.
func TestRunnerSharedByConcurrentPlans(t *testing.T) {
	s := miniSpec()
	s.Estimator = EstimatorACE
	r := &Runner{}
	before := tracedRuns.Load()
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
	if n := tracedRuns.Load() - before; n != 4*4 {
		t.Fatalf("%d traced runs for four plans of 2 chips x 2 benchmarks, want 4 per plan", n)
	}
	for i := 1; i < len(docs); i++ {
		if !bytes.Equal(docs[i], docs[0]) {
			t.Fatalf("plan %d's result differs from plan 0's", i)
		}
	}
}

// TestACETracesEachPairOnce: within one plan the cells of a (chip,
// benchmark) pair share one traced run, so an ACE-only plan over both
// structures makes one run per pair, not one per cell.
func TestACETracesEachPairOnce(t *testing.T) {
	s := miniSpec()
	s.Estimator = EstimatorACE
	plan, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	pairs := make(map[[2]string]bool)
	for _, pc := range plan.Cells {
		pairs[aceKey(pc)] = true
	}
	before := tracedRuns.Load()
	if _, err := (&Runner{}).RunPlan(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	if n := tracedRuns.Load() - before; n != 4 || len(pairs) != 4 || len(plan.Cells) != 8 {
		t.Fatalf("%d traced runs for %d cells over %d pairs, want 4 for 8 over 4", n, len(plan.Cells), len(pairs))
	}
}

// TestACEProgressPerCell: under the ACE-only estimator every cell reports
// once, as its pair's run lands, with Done counting 1..N.
func TestACEProgressPerCell(t *testing.T) {
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
		if p.Done != i+1 || p.Total != total || !p.Cached || p.Result != nil || p.Err != nil {
			t.Fatalf("event %d: %+v", i, p)
		}
		if seen[p.Index] {
			t.Fatalf("cell %d reported twice", p.Index)
		}
		seen[p.Index] = true
	}
}
