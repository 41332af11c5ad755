package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/campaign"
	"repro/internal/finject"
	"repro/internal/telemetry"
)

// submitRequest is the POST /v1/jobs body.
type submitRequest struct {
	Cells []campaign.CellSpec `json:"cells"`
	// Policy, when present, applies to every cell of the batch.
	Policy *jobPolicy `json:"policy,omitempty"`
}

// handleSubmit validates the batch, registers a job and runs it
// asynchronously.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody)).Decode(&req); err != nil {
		bodyError(w, err, "bad request body: %v")
		return
	}
	if len(req.Cells) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if p := req.Policy; p != nil {
		// Same legality rules as an experiment spec's policy block:
		// zero values mean "default", so only genuinely out-of-range
		// policies are rejected. Normalize owns the rules (and the exact
		// error text, which is part of the API).
		norm, err := p.Normalize()
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		*p = norm
	}
	batch, cells, err := buildBatch(req.Cells, req.Policy)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tenant, tq := s.tenantOf(r)
	if !s.admitJob(w, tq, batchCost(req.Cells)) {
		return
	}

	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		if tq != nil {
			s.quota.release(tenant)
		}
		httpError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	s.running.Add(1)
	s.nextID++
	j := &job{
		id:        newJobID("job", s.nextID),
		kind:      "batch",
		cancel:    cancel,
		tenant:    tenant,
		quotaHeld: tq != nil,
		state:     "running",
		cells:     cells,
		results:   make([]*finject.Result, len(batch)),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	s.mu.Unlock()
	telemetry.JobsSubmitted.With(tenantMetricLabel(tenant)).Inc()

	// The submit record goes down before the job goroutine can journal
	// its first cell, so replay always sees a job before its transitions.
	s.journal(journalRecord{
		Event: "submit", Job: j.id, Kind: "batch", Tenant: tenant,
		Cells: req.Cells, Policy: req.Policy,
	})

	// The job id and tenant ride the context from here through the
	// scheduler and — on the remote tier — across the lease wire into
	// worker logs and fair-share accounting.
	jctx := telemetry.WithTenant(telemetry.WithJob(ctx, j.id), tenant)
	s.log.InfoContext(jctx, "job submitted", "kind", "batch", "cells", len(batch))

	go s.runBatchJob(jctx, cancel, j, batch)

	writeJSON(w, http.StatusAccepted, map[string]any{"id": j.id, "total": len(batch)})
}

// buildBatch compiles submitted cell specs (plus an optional batch-wide
// policy override) into runnable campaigns and their initial cell
// states. Shared by submission and restart recovery, so a recovered job
// re-runs through exactly the validation and policy path it was
// submitted under.
func buildBatch(specs []campaign.CellSpec, policy *jobPolicy) ([]finject.Campaign, []cellState, error) {
	batch := make([]finject.Campaign, len(specs))
	cells := make([]cellState, len(specs))
	for i, spec := range specs {
		c, err := spec.Campaign()
		if err != nil {
			return nil, nil, fmt.Errorf("cell %d: %v", i, err)
		}
		if policy != nil {
			// The batch policy replaces each cell's stopping rule but keeps
			// the cell's own checkpoint knob unless the policy sets one; a
			// seed in the policy block is ignored — cell identity always
			// comes from the spec.
			c.Policy = policy.Policy(c.Policy.Checkpoint)
		}
		batch[i] = c
		cells[i] = cellState{Spec: campaign.SpecOf(c), State: "pending"}
	}
	return batch, cells, nil
}

// batchCost sums a submission's normalized injection caps — the
// admission weight the inj-rate quota charges.
func batchCost(specs []campaign.CellSpec) int64 {
	var cost int64
	for _, s := range specs {
		cost += int64(s.Normalize().Injections)
	}
	return cost
}

// runBatchJob drives one batch job through the scheduler, journaling
// every cell transition and the terminal state. It is the shared engine
// behind fresh submissions and restart recovery: because campaigns are
// deterministic functions of their specs, re-driving a recovered job
// through the same path yields byte-identical results, with
// already-journaled cells answered from the warm campaign store.
func (s *Server) runBatchJob(ctx context.Context, cancel context.CancelFunc, j *job, batch []finject.Campaign) {
	// Release the context's resources once the batch settles; DELETE
	// uses the same cancel to abort early and Shutdown drains on the
	// same WaitGroup.
	defer s.running.Done()
	defer cancel()
	results, err := s.sched.RunBatch(ctx, batch, func(i int, res *finject.Result, cached bool, cellErr error) {
		j.mu.Lock()
		defer j.mu.Unlock()
		j.done++
		if cellErr != nil {
			j.cells[i].State = "failed"
			j.cells[i].Error = cellErr.Error()
			s.log.WarnContext(ctx, "cell failed", "spec", j.cells[i].Spec, "err", cellErr)
		} else {
			j.cells[i].State = "done"
			j.cells[i].Cached = cached
			j.cells[i].Injections = res.Injections
			s.log.DebugContext(ctx, "cell done",
				"spec", j.cells[i].Spec, "cached", cached, "injections", res.Injections)
		}
		s.journal(journalRecord{
			Event: "cell", Job: j.id, Index: i,
			State: j.cells[i].State, Cached: j.cells[i].Cached,
			Injections: j.cells[i].Injections, Error: j.cells[i].Error,
			Result: res,
		})
	})
	j.mu.Lock()
	j.results = results
	switch {
	case err == nil:
		j.state = "done"
	case ctx.Err() != nil:
		j.state = "canceled"
		j.errMsg = err.Error()
	default:
		j.state = "failed"
		j.errMsg = err.Error()
	}
	state, errMsg, done := j.state, j.errMsg, j.done
	j.mu.Unlock()
	s.settleJob(j)
	s.journalFinish(journalRecord{Event: "finish", Job: j.id, State: state, Error: errMsg})
	s.log.InfoContext(ctx, "job finished", "state", state, "done", done, "error", errMsg)
}

// evictLocked drops the oldest finished jobs beyond the retention bound,
// journaling each eviction so a restarted server retains the same set.
// Callers hold s.mu.
func (s *Server) evictLocked() {
	for i := 0; len(s.jobs) > s.maxRetained && i < len(s.order); {
		id := s.order[i]
		j := s.jobs[id]
		if j == nil {
			s.order = append(s.order[:i], s.order[i+1:]...)
			continue
		}
		j.mu.Lock()
		finished := j.state != "running"
		j.mu.Unlock()
		if !finished {
			i++
			continue
		}
		delete(s.jobs, id)
		s.order = append(s.order[:i], s.order[i+1:]...)
		s.journal(journalRecord{Event: "delete", Job: id})
	}
}

// jobByID resolves the {id} path value, scoped to the requesting
// tenant: in multi-tenant mode another tenant's job answers the same
// 404 as a job that never existed, so job ids leak nothing across
// tenants. Jobs journaled before tenancy (tenant "") stay visible to
// everyone.
func (s *Server) jobByID(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j != nil && !s.tenantSees(r, j) {
		j = nil
	}
	if j == nil {
		httpJobError(w, http.StatusNotFound, r.PathValue("id"), "unknown job %q", r.PathValue("id"))
	}
	return j
}

// tenantSees reports whether the request's tenant may observe j.
func (s *Server) tenantSees(r *http.Request, j *job) bool {
	if s.auth == nil || j.tenant == "" {
		return true
	}
	tenant, _ := s.tenantOf(r)
	return tenant == j.tenant
}

// handleStatus reports a job's progress.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	body := map[string]any{
		"id":    j.id,
		"kind":  j.kind,
		"state": j.state,
		"done":  j.done,
		"total": len(j.cells),
		"cells": j.cells,
		"error": j.errMsg,
	}
	if j.tenant != "" {
		body["tenant"] = j.tenant
	}
	writeJSON(w, http.StatusOK, body)
}

// jobResultRow pairs a cell spec with its result.
type jobResultRow struct {
	Spec   campaign.CellSpec `json:"spec"`
	Result *finject.Result   `json:"result"`
}

// handleResult returns the full results once the job is done.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == "running" {
		httpJobError(w, http.StatusConflict, j.id, "job %s still running (%d/%d cells)", j.id, j.done, len(j.cells))
		return
	}
	if j.state != "done" {
		httpJobError(w, http.StatusConflict, j.id, "job %s %s: %s", j.id, j.state, j.errMsg)
		return
	}
	if j.kind == "experiment" {
		writeJSON(w, http.StatusOK, map[string]any{"id": j.id, "result": j.expResult})
		return
	}
	rows := make([]jobResultRow, len(j.cells))
	for i := range j.cells {
		rows[i] = jobResultRow{Spec: j.cells[i].Spec, Result: j.results[i]}
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": j.id, "cells": rows})
}

// jobSummary is one row of the GET /v1/jobs listing.
type jobSummary struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	State  string `json:"state"`
	Done   int    `json:"done"`
	Total  int    `json:"total"`
	Tenant string `json:"tenant,omitempty"`
}

// handleJobs lists the retained jobs, oldest first — the discovery
// surface clients use to find their jobs again after a server restart.
// In multi-tenant mode each tenant sees only its own jobs (plus any
// pre-tenancy jobs with no owner).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	js := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil && s.tenantSees(r, j) {
			js = append(js, j)
		}
	}
	s.mu.Unlock()
	rows := make([]jobSummary, len(js))
	for i, j := range js {
		j.mu.Lock()
		rows[i] = jobSummary{ID: j.id, Kind: j.kind, State: j.state, Done: j.done, Total: len(j.cells), Tenant: j.tenant}
		j.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": rows})
}

// handleCancel implements DELETE /v1/jobs/{id}. The semantics are
// state-dependent and pinned by TestDeleteJobSemantics:
//
//   - running job: request cancellation, answer {"state":"canceling"};
//     the job settles as "canceled" and stays retrievable until deleted.
//   - finished job ("done", "failed", "canceled"): remove it from the
//     retained set, answer {"state":"deleted"}; subsequent requests 404.
//   - unknown id (never submitted, already deleted or evicted): 404.
//
// Removal happens under s.mu — the same lock evictLocked runs under —
// so a DELETE can never race eviction into a double-removal.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	if j != nil && !s.tenantSees(r, j) {
		j = nil
	}
	if j == nil {
		s.mu.Unlock()
		httpJobError(w, http.StatusNotFound, id, "unknown job %q", id)
		return
	}
	j.mu.Lock()
	finished := j.state != "running"
	j.mu.Unlock()
	if !finished {
		s.mu.Unlock()
		j.cancel()
		writeJSON(w, http.StatusOK, map[string]string{"id": j.id, "state": "canceling"})
		return
	}
	delete(s.jobs, id)
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.journal(journalRecord{Event: "delete", Job: id})
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]string{"id": id, "state": "deleted"})
}
