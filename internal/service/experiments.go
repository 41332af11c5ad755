package service

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"

	"repro/internal/experiment"
	"repro/internal/telemetry"
)

// experimentEvent is one NDJSON line of the experiment stream.
type experimentEvent struct {
	Event     string `json:"event"` // "job", "cell", "error" or "result"
	ID        string `json:"id,omitempty"`
	Name      string `json:"name,omitempty"`
	Chip      string `json:"chip,omitempty"`
	Benchmark string `json:"benchmark,omitempty"`
	Structure string `json:"structure,omitempty"`
	Cached    bool   `json:"cached,omitempty"`
	Done      int    `json:"done,omitempty"`
	Total     int    `json:"total,omitempty"`
	Error     string `json:"error,omitempty"`
	// Result carries the full experiment result on the final event.
	Result *experiment.Result `json:"result,omitempty"`
}

// handleExperiment runs one declarative experiment spec: the body is a
// versioned experiment.Spec (unknown fields rejected), the response is
// an NDJSON stream — a "job" event with the registered job id, one
// "cell" event per grid cell as the scheduler serves it, and a final
// "result" event carrying the full experiment result. The run is backed
// by the job store: its status, result and DELETE-cancel work through
// the /v1/jobs endpoints like any batch job, and the result is retained
// after the stream ends.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	spec, err := experiment.Parse(http.MaxBytesReader(w, r.Body, maxSpecBody))
	if err != nil {
		bodyError(w, err, "%v")
		return
	}
	plan, err := spec.Compile()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	cells := make([]cellState, len(plan.Cells))
	specs := plan.CellSpecs()
	for i, cs := range specs {
		cells[i] = cellState{Spec: cs, State: "pending"}
	}
	tenant, tq := s.tenantOf(r)
	if !s.admitJob(w, tq, batchCost(specs)) {
		return
	}

	// The run dies with the connection (the stream is the delivery
	// channel) or with a DELETE on the job id; the finished result
	// outlives both in the job store.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		if tq != nil {
			s.quota.release(tenant)
		}
		httpError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	s.running.Add(1)
	s.nextID++
	j := &job{
		id:        newJobID("exp", s.nextID),
		kind:      "experiment",
		cancel:    cancel,
		tenant:    tenant,
		quotaHeld: tq != nil,
		state:     "running",
		cells:     cells,
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	s.mu.Unlock()
	telemetry.JobsSubmitted.With(tenantMetricLabel(tenant)).Inc()

	// Journal the normalized spec: replaying it through Parse + Compile on
	// recovery reproduces this exact plan (normalization is idempotent).
	rawSpec, _ := json.Marshal(plan.Spec)
	s.journal(journalRecord{Event: "submit", Job: j.id, Kind: "experiment", Tenant: tenant, Spec: rawSpec})

	ctx = telemetry.WithTenant(telemetry.WithJob(ctx, j.id), tenant)
	s.log.InfoContext(ctx, "experiment started", "name", plan.Spec.Name, "cells", len(plan.Cells))

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := newLockedEncoder(w, flusher)
	enc.emit(experimentEvent{Event: "job", ID: j.id, Name: plan.Spec.Name, Total: len(plan.Cells)})

	defer enc.close()
	s.runExperimentJob(ctx, cancel, j, plan, func(ev experimentEvent) { enc.emit(ev) })
}

// runExperimentJob drives one experiment job through the spec runner,
// journaling cell transitions and the terminal result. The emit hook
// (nil for detached runs, the NDJSON encoder for streamed ones) receives
// progress and the final result/error event. Shared between the
// streaming handler and restart recovery — determinism plus the warm
// campaign store make a recovered run byte-identical to an
// uninterrupted one.
func (s *Server) runExperimentJob(ctx context.Context, cancel context.CancelFunc, j *job, plan *experiment.Plan, emit func(experimentEvent)) {
	defer s.running.Done()
	defer cancel()
	if emit == nil {
		emit = func(experimentEvent) {}
	}
	runner := &experiment.Runner{
		Scheduler: s.sched,
		OnCell: func(p experiment.Progress) {
			j.mu.Lock()
			i := indexOfCell(p, plan)
			st := &j.cells[i]
			j.done++
			if p.Err != nil {
				st.State = "failed"
				st.Error = p.Err.Error()
			} else {
				st.State = "done"
				st.Cached = p.Cached
			}
			s.journal(journalRecord{
				Event: "cell", Job: j.id, Index: i,
				State: st.State, Cached: st.Cached, Error: st.Error,
			})
			j.mu.Unlock()
			if p.Err != nil {
				return
			}
			emit(experimentEvent{
				Event:     "cell",
				Chip:      p.Spec.Chip,
				Benchmark: p.Spec.Benchmark,
				Structure: p.Spec.Structure.String(),
				Cached:    p.Cached,
				Done:      p.Done,
				Total:     p.Total,
			})
		},
	}
	res, err := runner.RunPlan(ctx, plan)

	j.mu.Lock()
	switch {
	case err == nil:
		j.state = "done"
		j.expResult = res
	case ctx.Err() != nil:
		j.state = "canceled"
		j.errMsg = err.Error()
	default:
		j.state = "failed"
		j.errMsg = err.Error()
	}
	state, errMsg := j.state, j.errMsg
	j.mu.Unlock()
	s.settleJob(j)
	s.journalFinish(journalRecord{Event: "finish", Job: j.id, State: state, Error: errMsg, ExpResult: res})
	s.log.InfoContext(ctx, "experiment finished", "name", plan.Spec.Name, "state", state)

	if err != nil {
		emit(experimentEvent{Event: "error", ID: j.id, Error: err.Error()})
		return
	}
	emit(experimentEvent{Event: "result", ID: j.id, Name: plan.Spec.Name, Result: res})
}

// indexOfCell maps a runner progress event back to its flat cell-state
// index (the plan's scheduling order).
func indexOfCell(p experiment.Progress, plan *experiment.Plan) int {
	nChips := len(plan.Chips)
	nStructs := len(plan.Spec.Structures)
	return (p.Cell.BenchIndex*nChips+p.Cell.ChipIndex)*nStructs + p.Cell.StructIndex
}

// lockedEncoder serializes NDJSON emission from scheduler goroutines
// and guards against writes after the handler returned.
type lockedEncoder struct {
	mu      sync.Mutex
	enc     *json.Encoder
	flusher http.Flusher
	closed  bool
}

func newLockedEncoder(w http.ResponseWriter, flusher http.Flusher) *lockedEncoder {
	return &lockedEncoder{enc: json.NewEncoder(w), flusher: flusher}
}

func (e *lockedEncoder) emit(v any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.enc.Encode(v)
	if e.flusher != nil {
		e.flusher.Flush()
	}
}

func (e *lockedEncoder) close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
}
