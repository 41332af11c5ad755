// Package worker implements the fiworker side of the distributed
// campaign tier: an HTTP client for the fiserver worker protocol (lease /
// heartbeat / complete) and a pull-based worker loop that runs leased
// cells through the local deterministic injection engine and streams the
// results back. Because campaigns are deterministic functions of their
// spec, a cell computed here is byte-identical to one computed by the
// server or by any other worker — the fleet only moves work, never
// results.
package worker

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/finject"
	"repro/internal/telemetry"
)

// Client speaks the fiserver worker protocol. It may be pointed at a
// whole cluster: Base accepts a comma-separated list of server URLs,
// and the client sticks to one until it fails (transport error or 5xx
// — a dead server or a standby answering 503), then rotates to the
// next. Determinism makes the servers interchangeable: whichever owner
// grants the lease, the cell's result is the same bytes. The bodies and
// the transport are internal/api's; this type and its three methods are
// one-line wrappers over them, kept because bench/ and fiworker compile
// against these names. Set the fields before the first call.
type Client struct {
	// Base is the server's base URL, e.g. "http://127.0.0.1:8080", or a
	// comma-separated list of them for a clustered control plane.
	Base string
	// Name identifies this worker in leases and server-side stats.
	Name string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client

	once   sync.Once
	caller api.Caller
}

// transport returns the Caller behind the client, set up on first use.
func (c *Client) transport() *api.Caller {
	c.once.Do(func() { c.caller.Base, c.caller.HTTPClient = c.Base, c.HTTPClient })
	return &c.caller
}

// Lease asks for up to max cells, long-polling the server for wait.
func (c *Client) Lease(ctx context.Context, max int, wait time.Duration) ([]campaign.Lease, error) {
	var grant api.LeaseGrant
	err := c.transport().Do(ctx, http.MethodPost, "/v1/workers/lease", api.LeaseRequest{Worker: c.Name, Max: max, WaitMillis: wait.Milliseconds()}, &grant)
	return grant.Leases, err
}

// Heartbeat renews a lease; alive == false means the server re-queued or
// already resolved the cell and further work on it is wasted.
func (c *Client) Heartbeat(ctx context.Context, leaseID string) (alive bool, err error) {
	err = c.transport().Do(ctx, http.MethodPost, "/v1/workers/"+leaseID+"/heartbeat", nil, nil)
	if api.StatusOf(err) == http.StatusGone {
		return false, nil
	}
	return err == nil, err
}

// Complete delivers the cell's result (or the execution error when
// errMsg is non-empty).
func (c *Client) Complete(ctx context.Context, leaseID string, res *finject.Result, errMsg string) error {
	req := api.CompleteRequest{Result: res}
	if errMsg != "" {
		req = api.CompleteRequest{Error: errMsg}
	}
	return c.transport().Do(ctx, http.MethodPost, "/v1/workers/"+leaseID+"/complete", req, nil)
}

// Options tunes a Worker.
type Options struct {
	// Concurrency is the number of cells executed in parallel (1 when 0).
	Concurrency int
	// CampaignWorkers bounds the parallel simulations inside one cell
	// (GOMAXPROCS divided by Concurrency when 0, so the two levels never
	// multiply beyond the machine). Never affects results.
	CampaignWorkers int
	// Poll is the lease long-poll duration (2s when 0).
	Poll time.Duration
	// Logger, when non-nil, receives one structured record per lease and
	// completion, correlated with the job id carried on the lease wire.
	Logger *slog.Logger
}

// Worker drains a fiserver's lease queue until its context ends: lease,
// simulate, heartbeat while running, complete. Golden reference runs are
// shared across every cell this worker executes for the same (chip,
// benchmark) pair, exactly as in the in-process scheduler.
type Worker struct {
	client *Client
	exec   *campaign.LocalExecutor
	opts   Options

	completed atomic.Int64
	failed    atomic.Int64
}

// New builds a Worker over the client.
func New(client *Client, opts Options) *Worker {
	if opts.Concurrency <= 0 {
		opts.Concurrency = 1
	}
	if opts.CampaignWorkers <= 0 {
		opts.CampaignWorkers = runtime.GOMAXPROCS(0) / opts.Concurrency
		if opts.CampaignWorkers < 1 {
			opts.CampaignWorkers = 1
		}
	}
	if opts.Poll <= 0 {
		opts.Poll = 2 * time.Second
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &Worker{client: client, exec: campaign.NewLocalExecutor(), opts: opts}
}

// Completed reports cells this worker finished successfully.
func (w *Worker) Completed() int64 { return w.completed.Load() }

// Failed reports cells whose execution errored (reported to the server).
func (w *Worker) Failed() int64 { return w.failed.Load() }

// Run drains leases until ctx is canceled, then returns nil. Transient
// server errors (including an unreachable server) are retried after one
// poll interval — a worker outlives server restarts.
func (w *Worker) Run(ctx context.Context) error {
	sem := make(chan struct{}, w.opts.Concurrency)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			return nil
		}
		// Widen the request to every idle slot: a multi-cell grant is a
		// cost-balanced shard of the backlog.
		free := 1
		for len(sem) < cap(sem) {
			select {
			case sem <- struct{}{}:
				free++
			default:
			}
			if free == cap(sem) {
				break
			}
		}
		leases, err := w.client.Lease(ctx, free, w.opts.Poll)
		if err != nil {
			for i := 0; i < free; i++ {
				<-sem
			}
			if ctx.Err() != nil {
				return nil
			}
			w.opts.Logger.WarnContext(ctx, "lease request failed, retrying", "err", err)
			select {
			case <-time.After(w.opts.Poll):
			case <-ctx.Done():
				return nil
			}
			continue
		}
		for i := free; i > len(leases); i-- {
			<-sem
		}
		for _, l := range leases {
			wg.Add(1)
			go func(l campaign.Lease) {
				defer wg.Done()
				defer func() { <-sem }()
				w.runLease(ctx, l)
			}(l)
		}
	}
}

// runLease executes one leased cell, heartbeating while it runs. A
// worker canceled mid-cell completes nothing — the lease expires on the
// server and the cell goes to someone else.
func (w *Worker) runLease(ctx context.Context, l campaign.Lease) {
	// Rebuild the correlation identity on this side of the wire: the job
	// id travels in the task, the lease and cell ids are the lease's own.
	ctx = telemetry.WithJob(ctx, l.Task.Corr)
	ctx = telemetry.WithLease(ctx, l.ID)
	ctx = telemetry.WithCell(ctx, l.Task.Spec.String())
	log := w.opts.Logger
	log.InfoContext(ctx, "lease granted")
	cellCtx, cancel := context.WithCancel(ctx)

	hbEvery := time.Duration(l.TTLMillis) * time.Millisecond / 3
	if hbEvery < 50*time.Millisecond {
		hbEvery = 50 * time.Millisecond
	}
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(hbEvery)
		defer t.Stop()
		for {
			select {
			case <-cellCtx.Done():
				return
			case <-t.C:
				alive, err := w.client.Heartbeat(cellCtx, l.ID)
				if err == nil && !alive {
					// The server gave the cell to someone else; stop
					// burning cycles on it.
					log.InfoContext(cellCtx, "lease revoked, aborting cell")
					cancel()
					return
				}
			}
		}
	}()
	defer func() {
		cancel()
		hbWG.Wait()
	}()

	spec := l.Task.Spec.Normalize()
	cfg := l.Task.Policy
	cfg.Workers = w.opts.CampaignWorkers
	cfg.MaxInjections = 0
	// The spec's own checkpoint knob applies when the wire config leaves
	// it unset.
	pol := cfg.Policy(spec.CheckpointPolicy())
	res, err := w.exec.Execute(cellCtx, campaign.Request{Spec: spec, Key: spec.Key(), Policy: pol})
	if cellCtx.Err() != nil {
		return // dying or revoked mid-cell: let the lease expire
	}
	errMsg := ""
	if err != nil {
		errMsg, res = err.Error(), nil
		w.failed.Add(1)
	}
	// Deliver even when the worker is shutting down — the result is
	// already paid for and the queue accepts it — under a short detached
	// context so a dead server can't wedge the exit.
	for attempt := 0; attempt < 3; attempt++ {
		dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
		cerr := w.client.Complete(dctx, l.ID, res, errMsg)
		dcancel()
		if cerr == nil {
			if errMsg == "" {
				w.completed.Add(1)
				log.InfoContext(ctx, "cell completed", "injections", res.Injections)
			} else {
				log.WarnContext(ctx, "cell failed", "err", errMsg)
			}
			return
		}
		if api.StatusOf(cerr) == http.StatusNotFound {
			return
		}
		time.Sleep(200 * time.Millisecond)
	}
	log.WarnContext(ctx, "could not deliver result, letting the lease expire")
}
