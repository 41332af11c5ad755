package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/finject"
)

// handleExperiment runs one declarative experiment spec: the body is a
// versioned experiment.Spec (unknown fields rejected), the response is
// an NDJSON stream of api.Event lines — a "job" event with the
// registered job id, one "cell" event per grid cell as the scheduler
// serves it, and a final "result" event carrying the full experiment
// result. The run is a job like any batch: its status, result and
// DELETE-cancel work through the /v1/jobs endpoints, and the result is
// retained after the stream ends.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	work, err := compileExperiment(http.MaxBytesReader(w, r.Body, maxSpecBody))
	if err != nil {
		bodyError(w, err, "%v")
		return
	}
	// The run dies with the connection (the stream is the delivery
	// channel) or with a DELETE on the job id; the finished result
	// outlives both in the job table.
	ctx, status, err := s.start(r.Context(), r, work)
	if err != nil {
		httpError(w, status, "%v", err)
		return
	}
	id, name := work.def.Job, work.name

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := &lockedEncoder{enc: json.NewEncoder(w), flusher: flusher}
	defer enc.close()
	enc.emit(api.Event{Event: "job", ID: id, Name: name, Total: len(work.specs)})
	fin := s.run(ctx, work, enc.emit)
	if fin.State != "done" {
		enc.emit(api.Event{Event: "error", ID: id, Error: fin.Error})
		return
	}
	enc.emit(api.Event{Event: "result", ID: id, Name: name, Result: fin.ExpResult})
}

// compileExperiment parses a spec (strictly) and compiles it into a
// runnable plan.
func compileExperiment(body io.Reader) (*jobWork, error) {
	spec, err := experiment.Parse(body)
	if err != nil {
		return nil, err
	}
	plan, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	// Journal the normalized spec: replaying it through Parse + Compile on
	// recovery reproduces this exact plan (normalization is idempotent).
	rawSpec, _ := json.Marshal(plan.Spec)
	return &jobWork{
		prefix: "exp",
		name:   spec.Name,
		def:    journalRecord{Event: "submit", Kind: "experiment", Spec: rawSpec},
		specs:  plan.CellSpecs(),
		drive: func(ctx context.Context, sched *campaign.Scheduler, onCell func(int, *finject.Result, bool, error)) (*experiment.Result, error) {
			runner := &experiment.Runner{Scheduler: sched, OnCell: func(p experiment.Progress) {
				onCell(p.Index, p.Result, p.Cached, p.Err)
			}}
			return runner.RunPlan(ctx, plan)
		},
	}, nil
}

// lockedEncoder serializes NDJSON emission from scheduler goroutines
// and guards against writes after the handler returned.
type lockedEncoder struct {
	mu      sync.Mutex
	enc     *json.Encoder
	flusher http.Flusher
	closed  bool
}

func (e *lockedEncoder) emit(v api.Event) {
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
