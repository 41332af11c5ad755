// Package service implements the fiserver HTTP API: asynchronous
// campaign-batch jobs (submit / status / result / cancel) and streamed
// declarative experiments — the paper's figures included, as their
// canned specs — all JSON over net/http, sharing one campaign.Scheduler
// so every client benefits from every other client's finished cells.
//
// Endpoints:
//
//	POST   /v1/jobs              submit a batch of cells; returns {id}
//	GET    /v1/jobs              list retained jobs, oldest first
//	GET    /v1/jobs/{id}         job status with per-cell states
//	GET    /v1/jobs/{id}/result  results (409 until the job is done)
//	DELETE /v1/jobs/{id}         cancel a running job, or delete a
//	                             finished one from the retained set
//	POST   /v1/experiments       run a declarative experiment spec,
//	                             streaming NDJSON progress + result
//	GET    /metrics              Prometheus exposition (scheduler,
//	                             lease-queue, store and HTTP counters)
//	GET    /healthz              liveness probe
//
// POST /v1/jobs and POST /v1/experiments are the only routes that start
// campaign work, and both are the same job underneath: one job table
// (jobtable.go) whose only mutator applies journal records, and one
// lifecycle (start and run in jobs.go) that admits, registers, drives and
// settles a job by producing those records. With a job journal attached
// (UseJobStore) each record is appended before it is applied, and a
// restarted server replays the file through the same apply; without one
// the identical path runs with the append skipped.
//
// With ServeWorkers enabled the server also speaks the pull-based remote
// worker protocol (see workers.go), distributing cells to a fiworker
// fleet under expiring leases instead of simulating them in-process.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/telemetry"
)

// maxRetainedJobs bounds the finished jobs kept for result retrieval;
// the oldest finished jobs are evicted first.
const maxRetainedJobs = 256

// Job-size ceilings, checked where a submission is admitted (jobCost).
// Sized from what the code assumes, not tunable: the paper runs 2,000
// injections per campaign and stats.SampleSize at 99 % / ±0.1 % asks for
// about 1.7 M, the registries span under 200 cells, and the product of
// the two stays far inside an int64.
const (
	maxJobCells       = 10_000
	maxCellInjections = 10_000_000
)

// Request-body ceilings, one per route that decodes a body: a body that
// runs over answers 413 instead of being buffered without bound. They
// are sized from what the code already assumes, not tunable: a cell spec
// is ~150 bytes on the wire and a spec file names axes, never data, so
// submissions and specs are small; a lease request is three scalars; a
// completion carries a finject.Result with optional per-injection
// detail, the one large body, capped where internal/client already caps
// an NDJSON line.
const (
	maxSubmitBody   = 8 << 20
	maxSpecBody     = 1 << 20
	maxLeaseBody    = 64 << 10
	maxCompleteBody = 64 << 20
)

// Server is the fiserver request handler. Create one with NewServer and
// mount it as an http.Handler. ServeWorkers adds the remote-worker lease
// protocol; Shutdown drains in-flight jobs.
type Server struct {
	sched *campaign.Scheduler
	mux   *http.ServeMux
	queue *campaign.LeaseQueue // non-nil once ServeWorkers ran
	log   *slog.Logger

	// auth, when non-nil, turns on multi-tenant mode: every control-plane
	// request must carry a known API key (see auth.go) and is accounted
	// and quota-checked under its tenant. quota tracks per-tenant usage
	// regardless (it is inert while auth is nil).
	auth  *KeySet
	quota *quotaTable

	// table is the one job table. jstore, when non-nil, is its write-ahead
	// journal (see UseJobStore and record).
	table  *jobTable
	jstore *JobStore

	// base is canceled by Shutdown (stop): no new jobs from then on, and
	// every job's context is hooked to it. mu orders that against start's
	// running.Add, so Shutdown's Wait covers every job that got in; it also
	// guards maxRetained, and is never held together with the table's mutex.
	base        context.Context
	stop        context.CancelFunc
	mu          sync.Mutex
	maxRetained int // finished-job retention bound (maxRetainedJobs)
	running     sync.WaitGroup
}

// NewServer builds a Server around the scheduler.
func NewServer(sched *campaign.Scheduler) *Server {
	s := &Server{
		sched:       sched,
		mux:         http.NewServeMux(),
		table:       &jobTable{jobs: make(map[string]*job)},
		maxRetained: maxRetainedJobs,
		quota:       newQuotaTable(),
		log:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	s.base, s.stop = context.WithCancel(context.Background())
	s.handle("POST /v1/jobs", s.handleSubmit)
	s.handle("GET /v1/jobs", s.handleJobs)
	s.handle("GET /v1/jobs/{id}", s.handleStatus)
	s.handle("GET /v1/jobs/{id}/result", s.handleResult)
	s.handle("DELETE /v1/jobs/{id}", s.handleCancel)
	s.handle("POST /v1/experiments", s.handleExperiment)
	s.mux.Handle("GET /metrics", telemetry.Handler())
	s.handle("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, api.Health{Status: "ok"})
	})
	return s
}

// handle registers a route with per-route request/latency metrics. The
// pattern doubles as the metric label, so cardinality is fixed at
// registration time and path parameters like {id} never explode it.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, telemetry.InstrumentHandler(pattern, h))
}

// SetLogger replaces the server's structured logger (a discarding logger
// by default, keeping embedded and test servers quiet).
func (s *Server) SetLogger(l *slog.Logger) {
	if l != nil {
		s.log = l
	}
}

// EnablePprof mounts net/http/pprof under /debug/pprof/ on the server's
// own mux — opt-in via fiserver's -pprof flag, never on by default.
func (s *Server) EnablePprof() { telemetry.RegisterPprof(s.mux) }

// ServeHTTP implements http.Handler. With a key set installed it is
// also the authentication gate: the resolved tenant rides the request
// context into handlers, logs and — over the lease wire — worker-side
// correlation.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.auth != nil && !authExempt(r.URL.Path) {
		t, ok := s.auth.Authenticate(r.Header.Get("Authorization"))
		if !ok {
			telemetry.HTTPAuthFailures.Inc()
			httpError(w, http.StatusUnauthorized, "missing or unknown API key")
			return
		}
		telemetry.HTTPTenantRequests.With(t.Name).Inc()
		r = r.WithContext(telemetry.WithTenant(r.Context(), t.Name))
	}
	s.mux.ServeHTTP(w, r)
}

// tenantOf resolves the authenticated tenant of a request ("" and nil
// on open servers, where no tenant accounting applies).
func (s *Server) tenantOf(r *http.Request) (string, *Tenant) {
	if s.auth == nil {
		return "", nil
	}
	t, ok := s.auth.Authenticate(r.Header.Get("Authorization"))
	if !ok {
		return "", nil
	}
	return t.Name, t
}

// writeJSON writes one JSON response (an internal/api type) with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// httpError writes the error envelope (api.ErrorEnvelope, the body of
// every non-2xx JSON answer) with no job attribution.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	httpJobError(w, code, "", format, args...)
}

// httpJobError writes the error envelope for an error concerning jobID
// (empty when the request never resolved to a job).
func httpJobError(w http.ResponseWriter, code int, jobID, format string, args ...any) {
	writeJSON(w, code, api.ErrorEnvelope{Error: api.Error{
		Code:    api.ErrorCode(code),
		Message: fmt.Sprintf(format, args...),
		JobID:   jobID,
	}})
}

// bodyError answers a request body that failed to decode: 413 when it
// ran over the route's http.MaxBytesReader ceiling, otherwise 400 with
// the decode error under format (one %v).
func bodyError(w http.ResponseWriter, err error, format string) {
	var over *http.MaxBytesError
	if errors.As(err, &over) {
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte limit of this route", over.Limit)
		return
	}
	httpError(w, http.StatusBadRequest, format, err)
}

// record performs one job transition, the same way on every server:
// append the record to the job journal when one is attached, then apply
// it to the table. Append first, so status never shows a transition the
// journal does not hold; apply regardless of the append's outcome, so a
// server whose disk fills keeps serving from memory exactly as an
// unjournaled one would.
func (s *Server) record(rec journalRecord) {
	s.journal(rec)
	s.table.apply(rec)
}

// journal appends records to the job journal, if one is attached.
// Failures are logged, never fatal.
func (s *Server) journal(recs ...journalRecord) {
	if s.jstore == nil {
		return
	}
	for _, rec := range recs {
		if err := s.jstore.append(rec); err != nil {
			s.log.Warn("job journal append failed", "job", rec.Job, "event", rec.Event, "err", err)
		}
	}
}

// Shutdown stops accepting new jobs, cancels the in-flight ones and
// waits for their goroutines to settle, up to ctx's deadline. It is the
// drain step between http.Server.Shutdown and process exit: without it,
// job goroutines keep simulating into a torn-down process.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.stop()
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.running.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
