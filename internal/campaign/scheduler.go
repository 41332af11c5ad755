package campaign

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/finject"
	"repro/internal/flight"
	"repro/internal/telemetry"
)

// Config configures a Scheduler.
type Config struct {
	// Store caches finished cells; an unbounded MemoryStore when nil.
	Store Store
	// Workers bounds concurrently executing cells (GOMAXPROCS when 0).
	Workers int
	// CampaignWorkers bounds the parallel simulations inside one
	// campaign. When 0, each campaign adaptively gets GOMAXPROCS divided
	// by the number of concurrently executing cells, so cell-level and
	// campaign-level parallelism never multiply beyond the machine.
	CampaignWorkers int
	// Executor runs the cells the scheduler cannot answer from its store:
	// a fresh LocalExecutor when nil, or e.g. a RemoteExecutor to shard
	// execution across a worker fleet. Caching, deduplication and policy
	// upgrade semantics are identical either way.
	Executor Executor
}

// Stats counts scheduler activity since construction.
type Stats struct {
	// Hits is the number of cells served straight from the store.
	Hits int64
	// Runs is the number of campaigns actually executed to completion.
	Runs int64
	// Joins is the number of requests that coalesced onto an in-flight
	// execution of the same cell instead of starting their own.
	Joins int64
	// GoldenRuns is the number of golden reference simulations executed;
	// one per (chip, benchmark) pair regardless of structure or campaign
	// count.
	GoldenRuns int64
	// Injections is the total number of injections actually executed
	// across all campaign runs (adaptive campaigns stop below the cap, so
	// this is usually less than Runs x the cap).
	Injections int64
	// Upgrades is the number of campaigns re-executed because the cached
	// cell had stopped at a looser margin than the request demanded.
	Upgrades int64
}

// Scheduler is a deduplicating, cancelable campaign executor: it answers
// from its Store when possible, coalesces concurrent requests for the
// same cell onto one execution (singleflight), bounds concurrency with a
// worker pool, and shares one golden reference run per (chip, benchmark)
// across all structures and campaigns.
type Scheduler struct {
	store           Store
	exec            Executor
	sem             chan struct{}
	campaignWorkers int

	inflight flight.Table[CellKey, *finject.Result]

	hits, runs, joins    atomic.Int64
	injections, upgrades atomic.Int64
}

// New builds a Scheduler.
func New(cfg Config) *Scheduler {
	if cfg.Store == nil {
		cfg.Store = NewMemoryStore(0)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Executor == nil {
		cfg.Executor = NewLocalExecutor()
	}
	return &Scheduler{
		store:           cfg.Store,
		exec:            cfg.Executor,
		sem:             make(chan struct{}, cfg.Workers),
		campaignWorkers: cfg.CampaignWorkers,
	}
}

// Stats returns a snapshot of the activity counters.
func (s *Scheduler) Stats() Stats {
	st := Stats{
		Hits:       s.hits.Load(),
		Runs:       s.runs.Load(),
		Joins:      s.joins.Load(),
		Injections: s.injections.Load(),
		Upgrades:   s.upgrades.Load(),
	}
	// Golden sharing lives in the executor; remote tiers count theirs on
	// the worker side.
	if g, ok := s.exec.(interface{ GoldenRuns() int64 }); ok {
		st.GoldenRuns = g.GoldenRuns()
	}
	return st
}

// Run serves one campaign cell: from the store if present, by joining an
// in-flight execution of the same cell if one exists, and by executing
// the campaign otherwise. Scheduling parameters that don't affect results
// (Workers, Golden) are owned by the scheduler: Workers follows
// Config.CampaignWorkers, and the golden reference comes from the
// executor's shared per-(chip, benchmark) cache.
//
// The campaign reaches the executor as its CellSpec: its chip and
// benchmark are resolved by name, which is also how SpecOf keys them. A
// chip variant must therefore be registered under a name of its own.
func (s *Scheduler) Run(ctx context.Context, c finject.Campaign) (*finject.Result, error) {
	res, _, err := s.run(ctx, c)
	return res, err
}

// run is Run plus a cached flag (true when no campaign was executed for
// this request).
func (s *Scheduler) run(ctx context.Context, c finject.Campaign) (*finject.Result, bool, error) {
	if c.Chip == nil || c.Benchmark == nil {
		return nil, false, errors.New("campaign: cell needs a chip and a benchmark")
	}
	spec := SpecOf(c)
	key := spec.Key()
	for {
		// A cached cell answers the request only if it satisfies the
		// request's policy: an adaptive cell that stopped early cannot
		// serve a fixed-size request (or a tighter margin) for the same
		// cap — the campaign re-runs with the tighter policy and the Put
		// overwrites the looser result.
		stale := false
		if res, ok, err := s.store.Get(key); err != nil {
			return nil, false, err
		} else if ok {
			if c.Policy.SatisfiedBy(res, spec.Injections) {
				s.hits.Add(1)
				telemetry.SchedCacheHits.Inc()
				return res, true, nil
			}
			stale = true
		}
		res, joined, err := s.inflight.Do(ctx, key, func() (*finject.Result, error) {
			return s.execute(ctx, spec, key, c.Policy)
		})
		switch {
		case !joined && err != nil:
			return nil, false, err
		case !joined:
			if stale {
				s.upgrades.Add(1)
				telemetry.SchedCacheUpgrades.Inc()
			}
			return res, false, nil
		case err == nil && c.Policy.SatisfiedBy(res, spec.Injections):
			s.joins.Add(1)
			telemetry.SchedJoins.Inc()
			return res, true, nil
		case ctx.Err() != nil:
			return nil, false, ctx.Err()
		case err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded):
			return nil, false, err
		}
		// The leader ran a looser policy, or was canceled while we are
		// still live: go round again and try to become the leader.
	}
}

// execute runs one cell through the executor under the worker pool.
func (s *Scheduler) execute(ctx context.Context, spec CellSpec, key CellKey, pol finject.Config) (*finject.Result, error) {
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	// Go picks at random when a slot and the cancel are both ready: a
	// canceled batch starts no new cell.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx = telemetry.WithCell(ctx, spec.String())
	telemetry.SchedInflight.Inc()
	defer telemetry.SchedInflight.Dec()
	defer telemetry.StartSpan(ctx, "cell_execute")()
	// The spec carries the cell; the policy's Margin and Confidence ride
	// along untouched (they are the request's stopping rule), its cap
	// already moved into spec.Injections and the worker count is
	// scheduler-owned.
	pol.MaxInjections = 0
	pol.Workers = s.campaignWorkers
	if pol.Workers <= 0 {
		// Split the machine across the currently executing cells so the
		// two parallelism levels don't multiply: a lone cell gets every
		// core, a full grid runs one simulation per cell at a time. A
		// remote executor ignores the hint — each worker divides its own
		// machine instead.
		pol.Workers = runtime.GOMAXPROCS(0) / len(s.sem)
		if pol.Workers < 1 {
			pol.Workers = 1
		}
	}
	res, err := s.exec.Execute(ctx, Request{Spec: spec, Key: key, Policy: pol})
	if err != nil {
		return nil, err
	}
	s.runs.Add(1)
	s.injections.Add(int64(res.Injections))
	telemetry.SchedCellRuns.Inc()
	if err := s.store.Put(key, res); err != nil {
		return nil, err
	}
	return res, nil
}

// RunBatch schedules every campaign of the batch across the worker pool
// and returns the results in input order. onCell, when non-nil, is called
// once per cell as it completes (from any goroutine, one call at a time).
// The first failure cancels the remaining cells and is returned; cells
// already finished keep their results in the slice. Cells start pair by
// pair (see pairsFirst), whatever the batch order.
func (s *Scheduler) RunBatch(ctx context.Context, batch []finject.Campaign, onCell func(i int, res *finject.Result, cached bool, err error)) ([]*finject.Result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]*finject.Result, len(batch))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for _, i := range pairsFirst(batch) {
		wg.Add(1)
		go func(i int, c finject.Campaign) {
			defer wg.Done()
			res, cached, err := s.run(ctx, c)
			mu.Lock()
			defer mu.Unlock()
			results[i] = res
			if err != nil && firstErr == nil {
				firstErr = err
				cancel()
			}
			if onCell != nil {
				onCell(i, res, cached, err)
			}
		}(i, batch[i])
	}
	wg.Wait()
	return results, firstErr
}

// pairsFirst orders a batch's indices: the first cell of every (chip,
// benchmark) pair, then the others, each in batch order. A cell waiting
// for its pair's shared golden run holds its worker slot, so in batch
// order a grid of both structures per pair ran its goldens one at a time.
func pairsFirst(batch []finject.Campaign) []int {
	var first, rest []int
	seen := make(map[[2]string]bool)
	for i, c := range batch {
		var pair [2]string
		if c.Chip != nil && c.Benchmark != nil {
			pair = [2]string{c.Chip.Name, c.Benchmark.Name}
		}
		if seen[pair] {
			rest = append(rest, i)
		} else {
			seen[pair] = true
			first = append(first, i)
		}
	}
	return append(first, rest...)
}
