// Package service implements the fiserver HTTP API: asynchronous
// campaign-batch jobs (submit / status / result / cancel), streamed
// whole-figure experiments, and scheduler statistics — all JSON over
// net/http, sharing one campaign.Scheduler so every client benefits from
// every other client's finished cells.
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
//	GET    /v1/figure            run Fig. 1/2/3, streaming NDJSON progress
//	                             (deprecated: a shim over the spec runner;
//	                             new clients POST the figure spec to
//	                             /v1/experiments instead)
//	GET    /v1/stats             scheduler counters and store size
//	GET    /healthz              liveness probe
//
// With ServeWorkers enabled the server also speaks the pull-based remote
// worker protocol (see workers.go), distributing cells to a fiworker
// fleet under expiring leases instead of simulating them in-process.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/campaign"
	"repro/internal/chips"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/finject"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// maxRetainedJobs bounds the finished jobs kept for result retrieval;
// the oldest finished jobs are evicted first.
const maxRetainedJobs = 256

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

	// jstore, when non-nil, write-ahead journals every job transition so
	// the job table survives restart (see UseJobStore). Lock ordering:
	// jstore's mutex is strictly innermost — appends may happen while
	// holding s.mu or a job's mu, never the other way around.
	jstore *JobStore

	mu          sync.Mutex
	nextID      int
	jobs        map[string]*job
	order       []string // job ids in submission order, for eviction
	maxRetained int      // finished-job retention bound (maxRetainedJobs)
	closed      bool     // Shutdown called; no new jobs
	running     sync.WaitGroup
}

// job tracks one submitted batch or one streamed experiment run.
type job struct {
	id     string
	kind   string // "batch" or "experiment"
	cancel context.CancelFunc
	// tenant is the submitting tenant ("" on open servers); in
	// multi-tenant mode other tenants cannot see this job. quotaHeld
	// marks a reserved max-jobs slot, returned once when the job settles.
	tenant    string
	quotaHeld bool

	mu      sync.Mutex
	state   string // "running", "done", "failed", "canceled"
	done    int
	cells   []cellState
	results []*finject.Result
	// expResult is the finished experiment's result (kind "experiment").
	expResult *experiment.Result
	errMsg    string
}

// newJobID mints a job id; experiments and batches share one sequence
// but carry distinct prefixes so operators can tell them apart.
func newJobID(prefix string, n int) string {
	return fmt.Sprintf("%s-%06d", prefix, n)
}

// cellState is the per-cell view inside a job status.
type cellState struct {
	Spec   campaign.CellSpec `json:"spec"`
	State  string            `json:"state"` // "pending", "done", "failed"
	Cached bool              `json:"cached"`
	// Injections is the realized sample size; under an adaptive policy
	// it can stop below the cell's cap.
	Injections int    `json:"injections,omitempty"`
	Error      string `json:"error,omitempty"`
}

// jobPolicy is the wire form of the execution policy applied to every
// cell of a submitted batch: the engine's versioned Config. The field
// names match the historical ad-hoc policy block (margin, confidence,
// max_injections, checkpoint), so journals and clients written against
// it keep parsing; worker counts remain server-owned — the scheduler
// overwrites them per cell regardless of what a submitter sends. A nil
// checkpoint means each cell's own setting; the cell seed always comes
// from the spec, never the policy block.
type jobPolicy = finject.Config

// NewServer builds a Server around the scheduler.
func NewServer(sched *campaign.Scheduler) *Server {
	s := &Server{
		sched:       sched,
		mux:         http.NewServeMux(),
		jobs:        make(map[string]*job),
		maxRetained: maxRetainedJobs,
		quota:       newQuotaTable(),
		log:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	s.handle("POST /v1/jobs", s.handleSubmit)
	s.handle("GET /v1/jobs", s.handleJobs)
	s.handle("GET /v1/jobs/{id}", s.handleStatus)
	s.handle("GET /v1/jobs/{id}/result", s.handleResult)
	s.handle("DELETE /v1/jobs/{id}", s.handleCancel)
	s.handle("POST /v1/experiments", s.handleExperiment)
	s.handle("GET /v1/figure", s.handleFigure)
	s.handle("GET /v1/stats", s.handleStats)
	s.mux.Handle("GET /metrics", telemetry.Handler())
	s.handle("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
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

// admitJob runs quota admission for a submission of cost normalized
// injections, answering 429 (and counting the rejection) itself when
// the tenant is over a limit. The returned cleanup releases the
// reserved job slot; callers hand it to the job so settling releases
// exactly once.
func (s *Server) admitJob(w http.ResponseWriter, t *Tenant, cost int64) bool {
	if t == nil {
		return true
	}
	if err := s.quota.admit(t, cost); err != nil {
		telemetry.JobsQuotaRejected.With(t.Name).Inc()
		httpError(w, http.StatusTooManyRequests, "%v", err)
		return false
	}
	return true
}

// settleJob releases a job's quota slot, exactly once.
func (s *Server) settleJob(j *job) {
	j.mu.Lock()
	held := j.quotaHeld
	j.quotaHeld = false
	j.mu.Unlock()
	if held {
		s.quota.release(j.tenant)
	}
}

// writeJSON writes one JSON response with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// errorBody is the unified /v1 error envelope. Every non-2xx JSON
// answer — jobs, experiments, figures and the worker protocol — has the
// shape {"error":{"code","message","job_id"}}: a stable machine-readable
// code derived from the status, the human-readable message, and the job
// the error concerns when one exists. Streamed NDJSON error *events*
// keep their own flat shape; this envelope covers request/response
// errors only.
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	JobID   string `json:"job_id,omitempty"`
}

// errorCode maps a status code onto the envelope's stable slug.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusGone:
		return "gone"
	case http.StatusUnauthorized:
		return "unauthorized"
	case http.StatusTooManyRequests:
		return "quota_exceeded"
	case http.StatusServiceUnavailable:
		return "unavailable"
	default:
		return "error"
	}
}

// httpError writes the error envelope with no job attribution.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	httpJobError(w, code, "", format, args...)
}

// httpJobError writes the error envelope for an error concerning jobID
// (empty when the request never resolved to a job).
func httpJobError(w http.ResponseWriter, code int, jobID, format string, args ...any) {
	writeJSON(w, code, map[string]errorBody{"error": {
		Code:    errorCode(code),
		Message: fmt.Sprintf(format, args...),
		JobID:   jobID,
	}})
}

// journal appends one record to the job journal, if one is attached.
// Journal failures are logged, never fatal: a server whose disk fills
// keeps serving from memory exactly as an unjournaled one would.
func (s *Server) journal(rec journalRecord) {
	if s.jstore == nil {
		return
	}
	if err := s.jstore.append(rec); err != nil {
		s.log.Warn("job journal append failed", "job", rec.Job, "event", rec.Event, "err", err)
	}
}

// journalFinish appends a job's terminal record (the pre-finish crash
// barrier lives on this path).
func (s *Server) journalFinish(rec journalRecord) {
	if s.jstore == nil {
		return
	}
	if err := s.jstore.appendFinish(rec); err != nil {
		s.log.Warn("job journal append failed", "job", rec.Job, "event", rec.Event, "err", err)
	}
}

// tenantMetricLabel maps the empty tenant to the documented label value
// for per-tenant metric families on open servers.
func tenantMetricLabel(tenant string) string {
	if tenant == "" {
		return "default"
	}
	return tenant
}

// Shutdown stops accepting new jobs, cancels the in-flight ones and
// waits for their goroutines to settle, up to ctx's deadline. It is the
// drain step between http.Server.Shutdown and process exit: without it,
// job goroutines keep simulating into a torn-down process.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	for _, j := range s.jobs {
		j.cancel()
	}
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

// handleStats reports scheduler counters, store size and (with remote
// workers enabled) lease-queue state.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.sched.Stats()
	body := map[string]any{
		"hits":        st.Hits,
		"runs":        st.Runs,
		"joins":       st.Joins,
		"golden_runs": st.GoldenRuns,
		"injections":  st.Injections,
		"upgrades":    st.Upgrades,
		"store_cells": s.sched.Store().Len(),
	}
	if s.queue != nil {
		body["workers"] = s.queue.Stats()
	}
	writeJSON(w, http.StatusOK, body)
}

// figureOptions parses the shared figure query parameters.
func figureOptions(r *http.Request, sched *campaign.Scheduler) (core.Options, error) {
	opts := core.Options{Scheduler: sched}
	q := r.URL.Query()
	if v := q.Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return opts, fmt.Errorf("bad n %q", v)
		}
		opts.Injections = n
	}
	if v := q.Get("margin"); v != "" {
		m, err := strconv.ParseFloat(v, 64)
		if err != nil || m < 0 || m >= 1 {
			return opts, fmt.Errorf("bad margin %q", v)
		}
		opts.Margin = m
	}
	if v := q.Get("confidence"); v != "" {
		cl, err := strconv.ParseFloat(v, 64)
		if err != nil || cl <= 0 || cl >= 1 {
			return opts, fmt.Errorf("bad confidence %q", v)
		}
		opts.Confidence = cl
	}
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return opts, fmt.Errorf("bad seed %q", v)
		}
		opts.Seed = seed
	}
	if v := q.Get("chips"); v != "" {
		for _, name := range strings.Split(v, ",") {
			c, err := chips.ByName(strings.TrimSpace(name))
			if err != nil {
				return opts, err
			}
			opts.Chips = append(opts.Chips, c)
		}
	}
	if v := q.Get("bench"); v != "" {
		for _, name := range strings.Split(v, ",") {
			b, err := workloads.ByName(strings.TrimSpace(name))
			if err != nil {
				return opts, err
			}
			opts.Benchmarks = append(opts.Benchmarks, b)
		}
	}
	return opts, nil
}

// figureEvent is one NDJSON line of the figure stream.
type figureEvent struct {
	Event     string `json:"event"` // "cell" or "result"
	Chip      string `json:"chip,omitempty"`
	Benchmark string `json:"benchmark,omitempty"`
	Structure string `json:"structure,omitempty"`
	Cached    bool   `json:"cached,omitempty"`
	Done      int    `json:"done,omitempty"`
	Total     int    `json:"total,omitempty"`
	Fig       string `json:"fig,omitempty"`
	Figure    any    `json:"figure,omitempty"`
	Error     string `json:"error,omitempty"`
}

// handleFigure runs one of the paper's figures through the shared
// scheduler, streaming per-cell progress as NDJSON lines followed by one
// final result event. Query: fig=1|2|3 plus n, seed, chips, bench and
// stream=0 to suppress progress lines.
//
// Deprecated: the endpoint is a backward-compatibility shim — the core
// figure drivers it calls compile their options into experiment specs
// and run through the spec runner, so its output is byte-identical to
// the pre-redesign path (see TestFigureEndpointCompat) while new
// clients POST the equivalent spec to /v1/experiments.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Deprecation", "true")
	figNum := 0
	switch r.URL.Query().Get("fig") {
	case "1":
		figNum = 1
	case "2":
		figNum = 2
	case "3":
		figNum = 3
	default:
		httpError(w, http.StatusBadRequest, "fig must be 1, 2 or 3")
		return
	}
	opts, err := figureOptions(r, s.sched)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	stream := r.URL.Query().Get("stream") != "0"

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	// emitMu also guards closed: once the handler returns, a late
	// scheduler notification must not touch the recycled ResponseWriter.
	var (
		emitMu sync.Mutex
		closed bool
	)
	emit := func(ev figureEvent) {
		emitMu.Lock()
		defer emitMu.Unlock()
		if closed {
			return
		}
		enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}
	defer func() {
		emitMu.Lock()
		closed = true
		emitMu.Unlock()
	}()

	if stream {
		// This figure's exact work list: progress is restricted to these
		// keys (the scheduler is shared, so other requests' cells also
		// notify) and each unique cell counts once even though prewarm
		// batches and per-cell assembly both touch the scheduler.
		specs, err := core.FigureCells(figNum, opts)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		total := 0
		pending := make(map[campaign.CellKey]bool, len(specs))
		for _, spec := range specs {
			if !pending[spec.Key()] {
				pending[spec.Key()] = true
				total++
			}
		}
		var seenMu sync.Mutex
		done := 0
		unsub := s.sched.Subscribe(func(p campaign.Progress) {
			seenMu.Lock()
			if !pending[p.Key] {
				seenMu.Unlock()
				return
			}
			delete(pending, p.Key)
			done++
			d := done
			seenMu.Unlock()
			emit(figureEvent{
				Event:     "cell",
				Chip:      p.Spec.Chip,
				Benchmark: p.Spec.Benchmark,
				Structure: p.Spec.Structure.String(),
				Cached:    p.Cached,
				Done:      d,
				Total:     total,
			})
		})
		defer unsub()
	}

	// Figure runs are not registered jobs, but they still get a job
	// correlation id so their cells are greppable across the fleet.
	s.mu.Lock()
	s.nextID++
	figID := newJobID("fig", s.nextID)
	s.mu.Unlock()
	ctx := telemetry.WithJob(r.Context(), figID)
	s.log.InfoContext(ctx, "figure run", "fig", figNum)
	var result any
	switch figNum {
	case 1:
		result, err = core.FigureRegisterFileContext(ctx, opts)
	case 2:
		result, err = core.FigureLocalMemoryContext(ctx, opts)
	case 3:
		result, err = core.FigureEPFContext(ctx, opts)
	}
	if err != nil {
		s.log.WarnContext(ctx, "figure failed", "fig", figNum, "err", err)
		emit(figureEvent{Event: "error", Error: err.Error()})
		return
	}
	s.log.InfoContext(ctx, "figure done", "fig", figNum)
	emit(figureEvent{Event: "result", Fig: strconv.Itoa(figNum), Figure: result})
}
