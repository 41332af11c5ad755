// Package client is the Go client of the fiserver HTTP API, shared by
// the CLI tools and the end-to-end tests: declarative experiment runs
// (streamed NDJSON progress + result — the paper's figures are
// experiment.Figure specs sent this way) and batch jobs. The wire forms
// and the transport are internal/api's; what this package exports are
// aliases of and one-line wrappers over them, kept because bench/ and
// the CLIs compile against these names.
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/experiment"
)

// Client calls a fiserver: api.Caller (Base, APIKey, HTTPClient) under
// the name its users construct it by.
type Client api.Caller

func (c *Client) transport() *api.Caller { return (*api.Caller)(c) }

// StatusCode extracts the HTTP status behind err, or 0.
func StatusCode(err error) int { return api.StatusOf(err) }

// Event is one NDJSON line of an experiment stream.
type Event = api.Event

// RunExperiment POSTs the spec to /v1/experiments and consumes the
// NDJSON stream: onEvent (when non-nil) sees every event including the
// final one, and the experiment result is returned. The server
// registers the run as a job; its id arrives in the first event.
func (c *Client) RunExperiment(ctx context.Context, spec experiment.Spec, onEvent func(Event)) (*experiment.Result, error) {
	var result *experiment.Result
	err := c.transport().Stream(ctx, http.MethodPost, "/v1/experiments", spec, func(ev Event) error {
		if onEvent != nil {
			onEvent(ev)
		}
		switch ev.Event {
		case "error":
			return fmt.Errorf("client: experiment failed: %s", ev.Error)
		case "result":
			result = ev.Result
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if result == nil {
		return nil, errors.New("client: stream ended without a result event")
	}
	return result, nil
}

// JobStatus is the GET /v1/jobs/{id} answer.
type JobStatus = api.JobStatus

// Status fetches one job's progress.
func (c *Client) Status(ctx context.Context, jobID string) (*JobStatus, error) {
	var st JobStatus
	if err := c.transport().Do(ctx, http.MethodGet, "/v1/jobs/"+jobID, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// ExperimentResult fetches a finished experiment job's result from the
// job store (the stream already carried it; this retrieves it again
// after the fact).
func (c *Client) ExperimentResult(ctx context.Context, jobID string) (*experiment.Result, error) {
	var out api.JobResult
	if err := c.transport().Do(ctx, http.MethodGet, "/v1/jobs/"+jobID+"/result", nil, &out); err != nil {
		return nil, err
	}
	if out.Result == nil {
		return nil, fmt.Errorf("client: job %s carries no experiment result", jobID)
	}
	return out.Result, nil
}

// Cancel cancels a running job (or deletes a finished one from the
// server's retained set — DELETE is state-dependent on the server).
func (c *Client) Cancel(ctx context.Context, jobID string) error {
	return c.transport().Do(ctx, http.MethodDelete, "/v1/jobs/"+jobID, nil, nil)
}

// JobSummary is one row of the GET /v1/jobs listing.
type JobSummary = api.JobSummary

// Jobs lists the server's retained jobs, oldest first — how a client
// finds its jobs again after a server restart severed its streams.
func (c *Client) Jobs(ctx context.Context) ([]JobSummary, error) {
	var out api.JobList
	if err := c.transport().Do(ctx, http.MethodGet, "/v1/jobs", nil, &out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

const (
	// waitBaseDelay is WaitDone's polling cadence against a healthy
	// server, and the floor of its error backoff.
	waitBaseDelay = 50 * time.Millisecond
	// waitMaxDelay caps the error backoff so a long outage is probed a
	// few times a second at worst, not hammered at the poll cadence.
	waitMaxDelay = 2 * time.Second
)

// WaitDone polls a job until it leaves the running state, retrying
// transient failures until ctx ends: the reconnect half of
// restart-proof jobs. With a journaled server, a job whose stream died
// with one process can be awaited against the next; with a clustered
// server, a standby's 503 is retried until a peer takes ownership.
// While the server is away the poll interval backs off exponentially
// with jitter (so a reconnecting fleet of clients does not stampede the
// reborn server) and resets once an answer gets through.
func (c *Client) WaitDone(ctx context.Context, jobID string) (*JobStatus, error) {
	delay := waitBaseDelay
	for {
		st, err := c.Status(ctx, jobID)
		if err != nil {
			// Server-side answers (404, 409, ...) are authoritative —
			// except 503, which a cluster standby returns while a peer
			// holds (or is inheriting) the job store. Transport errors
			// mean the server is away. Both heal with time.
			if code := StatusCode(err); code != 0 && code != http.StatusServiceUnavailable {
				return nil, err
			}
			// Full jitter over [delay/2, delay): desynchronizes clients
			// that all lost the same server at the same instant.
			wait := delay/2 + time.Duration(rand.Int64N(int64(delay/2)+1))
			if err := sleepCtx(ctx, wait); err != nil {
				return nil, err
			}
			if delay *= 2; delay > waitMaxDelay {
				delay = waitMaxDelay
			}
			continue
		}
		delay = waitBaseDelay
		if st.State != "running" {
			return st, nil
		}
		if err := sleepCtx(ctx, waitBaseDelay); err != nil {
			return nil, err
		}
	}
}

// sleepCtx waits d or until ctx ends, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Healthy probes /healthz.
func (c *Client) Healthy(ctx context.Context) error {
	return c.transport().Do(ctx, http.MethodGet, "/healthz", nil, nil)
}
