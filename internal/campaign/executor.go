package campaign

import (
	"context"
	"sync/atomic"

	"repro/internal/chips"
	"repro/internal/finject"
	"repro/internal/flight"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// Request is one normalized cell execution handed to an Executor by the
// scheduler (or by a worker draining a lease queue). Spec and Key pin the
// result-determining parameters; Policy is the campaign's execution
// policy — the stopping rule (Margin, Confidence), the checkpoint knob
// and a Workers hint that local executors may honor and remote tiers
// ignore. None of it changes the result, which is fixed by the spec alone.
type Request struct {
	Spec   CellSpec
	Key    CellKey
	Policy finject.Config
	// Campaign, when it carries a chip and benchmark, is the resolved
	// local form of Spec; executors that simulate in-process use it
	// directly (it may reference chips that are not in the registry).
	// When empty, executors resolve Spec through the registries instead —
	// the only option across a process boundary.
	Campaign finject.Campaign
}

// campaign resolves the request into a runnable campaign.
func (r Request) campaign() (finject.Campaign, error) {
	c := r.Campaign
	if c.Chip == nil || c.Benchmark == nil {
		var err error
		c, err = r.Spec.Campaign()
		if err != nil {
			return finject.Campaign{}, err
		}
	}
	c.Policy = r.Policy
	// The cap already lives in Spec.Injections; a nonzero MaxInjections
	// here would double-apply it.
	c.Policy.MaxInjections = 0
	c.Detail = false
	return c, nil
}

// Executor runs one campaign cell to completion. The scheduler owns
// caching, deduplication and concurrency bounds; an Executor owns only
// the execution itself, which makes the local simulation path and a
// remote worker fleet interchangeable. Executions must be deterministic
// functions of the request's Spec: a cell computed by any executor is
// byte-identical to the same cell computed by any other.
type Executor interface {
	Execute(ctx context.Context, req Request) (*finject.Result, error)
}

// LocalExecutor executes cells in-process through the fault-injection
// engine, sharing one golden reference run per (chip, benchmark) pair
// across all structures and campaigns — the execute path previously
// embedded in the scheduler, now reusable by remote workers too.
//
// The golden cache is one flight.Table that keeps its successes: it is
// consulted once per cell, the first request for a pair runs the
// reference, concurrent ones wait for it and later ones are answered
// from the table.
type LocalExecutor struct {
	golden flight.Table[string, *finject.Golden]

	goldenRuns atomic.Int64
}

// NewLocalExecutor builds a LocalExecutor with an empty golden cache.
func NewLocalExecutor() *LocalExecutor {
	return &LocalExecutor{golden: flight.Table[string, *finject.Golden]{Keep: true}}
}

// GoldenRuns reports the number of golden reference simulations executed;
// one per (chip, benchmark) pair regardless of structure or campaign
// count.
func (e *LocalExecutor) GoldenRuns() int64 { return e.goldenRuns.Load() }

// Execute implements Executor in-process.
func (e *LocalExecutor) Execute(ctx context.Context, req Request) (*finject.Result, error) {
	c, err := req.campaign()
	if err != nil {
		return nil, err
	}
	g, err := e.goldenFor(ctx, c.Chip, c.Benchmark)
	if err != nil {
		return nil, err
	}
	c.Golden = g
	return finject.RunContext(ctx, c)
}

// goldenFor returns the shared golden reference run for (chip, benchmark),
// executing it at most once across all concurrent campaigns. Failed runs
// are not cached; a later request retries.
func (e *LocalExecutor) goldenFor(ctx context.Context, chip *chips.Chip, bench *workloads.Benchmark) (*finject.Golden, error) {
	for {
		g, joined, err := e.golden.Do(ctx, chip.Name+"\x00"+bench.Name, func() (*finject.Golden, error) {
			telemetry.GoldenCacheMisses.Inc()
			g, err := finject.NewGolden(chip, bench)
			if err == nil {
				e.goldenRuns.Add(1)
			}
			return g, err
		})
		if joined {
			telemetry.GoldenCacheHits.Inc()
		}
		if !joined || err == nil {
			return g, err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// The run we joined failed and was forgotten: retry as leader.
	}
}

// RemoteExecutor satisfies Executor by publishing cells onto a LeaseQueue
// that pull-based workers drain: Execute blocks until some worker leases
// the cell, runs it and reports back (or the context ends). Determinism
// makes the answer byte-identical to a local execution, so the scheduler's
// cache, singleflight and policy-upgrade semantics are untouched by the
// change of tier.
type RemoteExecutor struct {
	queue *LeaseQueue
}

// NewRemoteExecutor builds a RemoteExecutor over the queue the worker
// endpoints serve.
func NewRemoteExecutor(q *LeaseQueue) *RemoteExecutor {
	return &RemoteExecutor{queue: q}
}

// Execute implements Executor by delegating to the worker fleet. Only
// the spec, the stopping rule and the checkpoint knob travel: worker
// counts are each worker's own business and never change results (nor
// does checkpointing — it only decides how much fault-free prefix each
// worker re-simulates).
func (e *RemoteExecutor) Execute(ctx context.Context, req Request) (*finject.Result, error) {
	ck := req.Policy.Knob()
	cfg := finject.Config{
		Version:    finject.ConfigVersion,
		Margin:     req.Policy.Margin,
		Confidence: req.Policy.Confidence,
		Checkpoint: &ck,
	}
	// The job correlation id and tenant ride along for observability and
	// fair-share accounting only; task identity and queue joining ignore
	// them (see sameWork).
	corr := telemetry.CorrFrom(ctx)
	return e.queue.Do(ctx, Task{Spec: req.Spec, Policy: cfg, Corr: corr.Job, Tenant: corr.Tenant})
}
