package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/finject"
	"repro/internal/telemetry"
)

// handleSubmit validates the batch, starts a job for it and lets it run
// detached. The body decodes strictly, as an experiment spec does, so a
// misspelt cell or policy field is refused rather than run under its
// default; journal replay, leases and the worker routes stay lenient.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
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
	work, err := compileBatch(req.Cells, req.Policy)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The run outlives the request: DELETE and Shutdown are what cancel it.
	ctx, status, err := s.start(context.Background(), r, work)
	if err != nil {
		httpError(w, status, "%v", err)
		return
	}
	go s.run(ctx, work, nil)
	writeJSON(w, http.StatusAccepted, api.SubmitAck{ID: work.def.Job, Total: len(work.specs)})
}

// jobWork is one job's run, and everything that differs between a batch
// and an experiment. compileBatch and compileExperiment build it from the
// job's definition — the request body on submission, the journaled
// submit record on resume, the same validation either way — and start
// and run take it from there identically.
type jobWork struct {
	prefix string // id prefix, so operators can tell the kinds apart
	name   string // experiment name, for its stream's job and result events
	// def is the job's submit record: compiling fills in the kind and the
	// payload (a batch's raw cells and policy, an experiment's normalized
	// spec), the caller the tenant, start the id — unless the job is being
	// resumed and has both.
	def    journalRecord
	specs  []campaign.CellSpec // the compiled cells, as drive reports and status shows them
	cancel context.CancelFunc  // aborts the run; set by start
	// cellResults makes cell records carry the cell's finject.Result: a
	// batch serves /result from them, while an experiment's durable answer
	// is the finish record's exp_result.
	cellResults bool
	// drive runs the work to its end, reporting each settled cell by its
	// index in specs (one call at a time); an experiment returns its result.
	drive func(ctx context.Context, sched *campaign.Scheduler, onCell func(i int, res *finject.Result, cached bool, err error)) (*experiment.Result, error)
}

// compileBatch compiles submitted cell specs (plus an optional
// batch-wide policy override) into a runnable batch. A golden-only cell
// is refused: only an ACE-only experiment makes one.
func compileBatch(cells []campaign.CellSpec, policy *finject.Config) (*jobWork, error) {
	batch := make([]finject.Campaign, len(cells))
	specs := make([]campaign.CellSpec, len(cells))
	for i, spec := range cells {
		if spec.GoldenOnly {
			return nil, fmt.Errorf(`cell %d: golden_only is not a batch option (POST an experiment with "estimator":"ace")`, i)
		}
		c, err := spec.Campaign()
		if err != nil {
			return nil, fmt.Errorf("cell %d: %v", i, err)
		}
		if policy != nil {
			// The batch policy replaces each cell's stopping rule but keeps
			// the cell's own checkpoint knob unless the policy sets one;
			// cell identity, the seed included, always comes from the spec.
			c.Policy = policy.Policy(c.Policy.Knob())
		}
		batch[i] = c
		specs[i] = campaign.SpecOf(c)
	}
	return &jobWork{
		prefix:      "job",
		def:         journalRecord{Event: "submit", Kind: "batch", Cells: cells, Policy: policy},
		specs:       specs,
		cellResults: true,
		drive: func(ctx context.Context, sched *campaign.Scheduler, onCell func(int, *finject.Result, bool, error)) (*experiment.Result, error) {
			_, err := sched.RunBatch(ctx, batch, onCell)
			return nil, err
		},
	}, nil
}

// compile recompiles a journaled job's run from its definition, ready to
// be started again under its own id.
func (j *job) compile() (work *jobWork, err error) {
	if j.kind == "experiment" {
		work, err = compileExperiment(bytes.NewReader(j.rawSpec))
	} else {
		work, err = compileBatch(j.rawCells, j.policy)
	}
	if err == nil {
		work.def.Job, work.def.Tenant = j.id, j.tenant
	}
	return work, err
}

// jobCost enforces maxJobCells and maxCellInjections and sums the job's
// normalized injection caps — the admission weight the inj-rate quota
// charges, which under the two ceilings cannot overflow.
func jobCost(specs []campaign.CellSpec) (int64, error) {
	if len(specs) > maxJobCells {
		return 0, fmt.Errorf("job has %d cells, the limit is %d", len(specs), maxJobCells)
	}
	var cost int64
	for i, s := range specs {
		n := s.Normalize().Injections
		if n > maxCellInjections {
			return 0, fmt.Errorf("cell %d asks for %d injections, the limit is %d", i, n, maxCellInjections)
		}
		cost += int64(n)
	}
	return cost, nil
}

// start is the one way a job comes to life: POST /v1/jobs, POST
// /v1/experiments and restart recovery all pass through it. A submission
// (r is the request it arrived in) runs under the requesting tenant, must
// fit the size ceilings and the tenant's quota, gets the next id, and its
// submit record is journaled. A resumed job (r nil; work.def carries its
// journaled id and tenant) was admitted once and must never bounce off a
// limit now: it re-takes its quota slot unchecked, and the submit record
// the journal already holds is applied again with the recompiled cells,
// resetting its progress to pending. Either way the job is then in the
// table and counted by Shutdown's drain, and the returned context carries
// its id and tenant through the scheduler and — on the remote tier —
// across the lease wire into worker logs and fair-share accounting. A
// refusal returns the HTTP status to answer it with; on success the
// caller owes the job one call of run.
func (s *Server) start(parent context.Context, r *http.Request, work *jobWork) (context.Context, int, error) {
	resume := r == nil
	if resume {
		if work.def.Tenant != "" {
			s.quota.reacquire(work.def.Tenant)
		}
	} else {
		var tq *Tenant
		work.def.Tenant, tq = s.tenantOf(r)
		cost, err := jobCost(work.specs)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		if tq != nil {
			if err := s.quota.admit(tq, cost); err != nil {
				telemetry.JobsQuotaRejected.With(tq.Name).Inc()
				return nil, http.StatusTooManyRequests, err
			}
		}
	}
	tenant := work.def.Tenant
	s.mu.Lock()
	closed, maxRetained := s.base.Err() != nil, s.maxRetained
	if !closed {
		s.running.Add(1)
	}
	s.mu.Unlock()
	if closed {
		s.quota.release(tenant)
		return nil, http.StatusServiceUnavailable, errors.New("server is shutting down")
	}

	// The run ends with its parent, with DELETE (through work.cancel), or
	// with the server: Shutdown cancels s.base, also for a job that is only
	// now on its way into the table.
	ctx, cancel := context.WithCancel(parent)
	unhook := context.AfterFunc(s.base, cancel)
	work.cancel = func() { unhook(); cancel() }
	work.def.work = work
	if resume {
		s.table.apply(work.def)
	} else {
		work.def.Job = fmt.Sprintf("%s-%06d", work.prefix, s.table.nextSeq())
		// The submit record is journaled and applied before run can produce
		// the job's first cell record, so replay always sees a job before
		// its transitions.
		s.record(work.def)
		s.journal(s.table.evict(maxRetained)...)
		telemetry.JobsSubmitted.With(telemetry.TenantLabel(tenant)).Inc()
	}
	ctx = telemetry.WithTenant(telemetry.WithJob(ctx, work.def.Job), tenant)
	s.log.InfoContext(ctx, "job started", "kind", work.def.Kind, "cells", len(work.specs), "resumed", resume)
	return ctx, 0, nil
}

// run drives a started job to its end: the one engine behind detached
// batches, streamed experiments and resumed jobs of either kind. Every
// settled cell and the terminal state become journal records. Campaigns
// are deterministic functions of their specs, so re-driving a recovered
// job through here yields byte-identical results, the cells that settled
// before the crash answered from the warm campaign store. emit, when
// non-nil, receives a "cell" event per successful cell (the experiment
// stream); the returned finish record is what the job settled as.
func (s *Server) run(ctx context.Context, work *jobWork, emit func(api.Event)) journalRecord {
	// Release the context's resources once the work settles; DELETE uses
	// the same cancel to abort early, and Shutdown drains on the WaitGroup.
	defer s.running.Done()
	defer work.cancel()
	id, done := work.def.Job, 0
	res, err := work.drive(ctx, s.sched, func(i int, fres *finject.Result, cached bool, cellErr error) {
		done++
		rec := journalRecord{Event: "cell", Job: id, Index: i, State: "done", Cached: cached}
		if cellErr != nil {
			rec.State, rec.Error = "failed", cellErr.Error()
			s.log.WarnContext(ctx, "cell failed", "spec", work.specs[i], "err", cellErr)
		} else {
			rec.Injections = fres.Injections
			if work.cellResults {
				rec.Result = fres
			}
		}
		s.record(rec)
		if cellErr != nil {
			return
		}
		s.log.DebugContext(ctx, "cell done", "spec", work.specs[i], "cached", cached, "injections", rec.Injections)
		if emit != nil {
			emit(api.Event{
				Event:     "cell",
				Chip:      work.specs[i].Chip,
				Benchmark: work.specs[i].Benchmark,
				Structure: work.specs[i].Structure.String(),
				Cached:    cached,
				Done:      done,
				Total:     len(work.specs),
			})
		}
	})
	fin := journalRecord{Event: "finish", Job: id, State: "done", ExpResult: res}
	switch {
	case err == nil:
	case ctx.Err() != nil:
		fin.State, fin.Error = "canceled", err.Error()
	default:
		fin.State, fin.Error = "failed", err.Error()
	}
	// The max-jobs slot is free by the time status can show the job settled
	// (releasing is a no-op for a tenant that holds none, "" included).
	s.quota.release(work.def.Tenant)
	s.record(fin)
	s.log.InfoContext(ctx, "job finished", "kind", work.def.Kind, "state", fin.State, "done", done, "error", fin.Error)
	return fin
}

// jobByID resolves the {id} path value to a copy of the job, scoped to
// the requesting tenant: in multi-tenant mode another tenant's job
// answers the same 404 as a job that never existed, so job ids leak
// nothing across tenants. Jobs journaled before tenancy (tenant "") stay
// visible to everyone.
func (s *Server) jobByID(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	j := s.table.get(id)
	if j != nil && !s.tenantSees(r, j) {
		j = nil
	}
	if j == nil {
		httpJobError(w, http.StatusNotFound, id, "unknown job %q", id)
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
	writeJSON(w, http.StatusOK, api.JobStatus{
		ID: j.id, Kind: j.kind, State: j.state, Tenant: j.tenant,
		Done: j.done, Total: len(j.cells), Cells: j.cells, Error: j.errMsg,
	})
}

// handleResult returns the full results once the job is done.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	if j.state == "running" {
		httpJobError(w, http.StatusConflict, j.id, "job %s still running (%d/%d cells)", j.id, j.done, len(j.cells))
		return
	}
	if j.state != "done" {
		httpJobError(w, http.StatusConflict, j.id, "job %s %s: %s", j.id, j.state, j.errMsg)
		return
	}
	if j.kind == "experiment" {
		writeJSON(w, http.StatusOK, api.JobResult{ID: j.id, Result: j.expResult})
		return
	}
	rows := make([]api.ResultRow, len(j.cells))
	for i, c := range j.cells {
		rows[i] = api.ResultRow{Spec: c.Spec, Result: j.results[i]}
	}
	writeJSON(w, http.StatusOK, api.JobResult{ID: j.id, Cells: rows})
}

// handleJobs lists the retained jobs, oldest first — the discovery
// surface clients use to find their jobs again after a server restart.
// In multi-tenant mode each tenant sees only its own jobs (plus any
// pre-tenancy jobs with no owner).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.table.mu.Lock()
	rows := make([]api.JobSummary, 0, len(s.table.order))
	for _, id := range s.table.order {
		if j := s.table.jobs[id]; s.tenantSees(r, j) {
			rows = append(rows, api.JobSummary{ID: j.id, Kind: j.kind, State: j.state, Done: j.done, Total: len(j.cells), Tenant: j.tenant})
		}
	}
	s.table.mu.Unlock()
	writeJSON(w, http.StatusOK, api.JobList{Jobs: rows})
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
// Finished is final, so the state is read first; the removal itself is
// one step under the table's lock — the same lock eviction removes
// under — so of a DELETE racing eviction or another DELETE exactly one
// removes the job and journals the delete record, and the other 404s.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	if j.state == "running" {
		j.cancel()
		writeJSON(w, http.StatusOK, api.JobState{ID: j.id, State: "canceling"})
		return
	}
	if !s.table.remove(j.id) {
		httpJobError(w, http.StatusNotFound, j.id, "unknown job %q", j.id)
		return
	}
	s.journal(journalRecord{Event: "delete", Job: j.id})
	writeJSON(w, http.StatusOK, api.JobState{ID: j.id, State: "deleted"})
}
