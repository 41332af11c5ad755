package service

import (
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
)

// maxLeaseWait caps how long a lease request may long-poll for work.
const maxLeaseWait = 30 * time.Second

// ServeWorkers mounts the pull-based worker protocol backed by q. The
// scheduler must be executing through a campaign.RemoteExecutor over the
// same queue, or no cells will ever appear here.
//
//	POST /v1/workers/lease               lease up to max cells (long-poll)
//	POST /v1/workers/{lease}/heartbeat   keep a lease alive
//	POST /v1/workers/{lease}/complete    deliver a result or an error
//
// Leases expire one TTL after their last heartbeat and re-queue their
// cell, so a dead worker never loses work; completions are idempotent and
// late completions from presumed-dead workers are accepted (determinism
// makes every completion of a cell interchangeable).
func (s *Server) ServeWorkers(q *campaign.LeaseQueue) {
	s.queue = q
	s.handle("POST /v1/workers/lease", s.handleWorkerLease)
	s.handle("POST /v1/workers/{lease}/heartbeat", s.handleWorkerHeartbeat)
	s.handle("POST /v1/workers/{lease}/complete", s.handleWorkerComplete)
}

// handleWorkerLease grants pending cells, long-polling when asked.
func (s *Server) handleWorkerLease(w http.ResponseWriter, r *http.Request) {
	if s.queue == nil {
		httpError(w, http.StatusNotFound, "remote workers not enabled")
		return
	}
	var req api.LeaseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxLeaseBody)).Decode(&req); err != nil {
		bodyError(w, err, "bad request body: %v")
		return
	}
	if req.Worker == "" {
		httpError(w, http.StatusBadRequest, "worker name required")
		return
	}
	wait := time.Duration(req.WaitMillis) * time.Millisecond
	if wait > maxLeaseWait {
		wait = maxLeaseWait
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	// Lease expiry is lazy (swept inside queue calls), so an idle poll
	// still re-checks periodically — but the common wakeup is the
	// queue's own new-work signal, not the ticker.
	recheck := time.NewTicker(250 * time.Millisecond)
	defer recheck.Stop()
	for {
		wake := s.queue.Wake()
		leases := s.queue.Lease(req.Worker, req.Max)
		if len(leases) > 0 {
			writeJSON(w, http.StatusOK, api.LeaseGrant{Leases: leases})
			return
		}
		select {
		case <-wake:
		case <-recheck.C:
		case <-deadline.C:
			writeJSON(w, http.StatusOK, api.LeaseGrant{})
			return
		case <-r.Context().Done():
			return
		}
	}
}

// handleWorkerHeartbeat renews a lease; 410 tells the worker its lease is
// gone (expired and re-queued, or already completed) and further work on
// the cell is wasted.
func (s *Server) handleWorkerHeartbeat(w http.ResponseWriter, r *http.Request) {
	if s.queue == nil {
		httpError(w, http.StatusNotFound, "remote workers not enabled")
		return
	}
	id := r.PathValue("lease")
	if !s.queue.Heartbeat(id) {
		httpError(w, http.StatusGone, "lease %q is no longer held", id)
		return
	}
	writeJSON(w, http.StatusOK, api.LeaseState{Lease: id, State: "held"})
}

// handleWorkerComplete records a worker's answer for its leased cell.
func (s *Server) handleWorkerComplete(w http.ResponseWriter, r *http.Request) {
	if s.queue == nil {
		httpError(w, http.StatusNotFound, "remote workers not enabled")
		return
	}
	var req api.CompleteRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxCompleteBody)).Decode(&req); err != nil {
		bodyError(w, err, "bad request body: %v")
		return
	}
	if req.Result == nil && req.Error == "" {
		httpError(w, http.StatusBadRequest, "complete needs a result or an error")
		return
	}
	id := r.PathValue("lease")
	if err := s.queue.Complete(id, req.Result, req.Error); err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, api.LeaseState{Lease: id, State: "completed"})
}
