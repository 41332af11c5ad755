// Package api declares the fiserver HTTP surface once: every request and
// response body, the error envelope and the one JSON call (Caller).
// internal/service encodes and decodes only these types, internal/client
// and internal/worker are wrappers over them, and nothing here imports
// any of the three — so a field added on one side of the wire exists on
// the other, also between a fiserver and a fiworker of different builds.
//
// A struct's field order is its key order on the wire; those in
// alphabetical order replace maps, which encoding/json writes
// key-sorted. internal/service's TestAPISessionPinned holds every route
// to the bytes it answered before this package existed.
package api

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/finject"
)

// SubmitRequest is the POST /v1/jobs body.
type SubmitRequest struct {
	Cells []campaign.CellSpec `json:"cells"`
	// Policy, when present, applies to every cell of the batch. Worker
	// counts remain server-owned, a nil checkpoint means each cell's own
	// setting, and the cell seed always comes from the spec.
	Policy *finject.Config `json:"policy,omitempty"`
}

// SubmitAck is the 202 answer to POST /v1/jobs.
type SubmitAck struct {
	ID    string `json:"id"`
	Total int    `json:"total"`
}

// CellStatus is one cell of a job inside its JobStatus.
type CellStatus struct {
	Spec   campaign.CellSpec `json:"spec"`
	State  string            `json:"state"` // "pending", "done", "failed"
	Cached bool              `json:"cached"`
	// Injections is the realized sample size; under an adaptive policy
	// it can stop below the cell's cap.
	Injections int    `json:"injections,omitempty"`
	Error      string `json:"error,omitempty"`
}

// JobStatus is the GET /v1/jobs/{id} answer, for batches and experiments
// alike.
type JobStatus struct {
	Cells []CellStatus `json:"cells"`
	Done  int          `json:"done"`
	Error string       `json:"error"`
	ID    string       `json:"id"`
	Kind  string       `json:"kind"`  // "batch" or "experiment"
	State string       `json:"state"` // "running", "done", "failed", "canceled"
	// Tenant is the submitting tenant; absent on open servers.
	Tenant string `json:"tenant,omitempty"`
	Total  int    `json:"total"`
}

// ResultRow pairs a batch cell's spec with its result.
type ResultRow struct {
	Spec   campaign.CellSpec `json:"spec"`
	Result *finject.Result   `json:"result"`
}

// JobResult is the GET /v1/jobs/{id}/result answer of a done job: a
// batch carries Cells, an experiment Result.
type JobResult struct {
	Cells  []ResultRow        `json:"cells,omitempty"`
	ID     string             `json:"id"`
	Result *experiment.Result `json:"result,omitempty"`
}

// JobSummary is one row of the GET /v1/jobs listing.
type JobSummary struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	State  string `json:"state"`
	Done   int    `json:"done"`
	Total  int    `json:"total"`
	Tenant string `json:"tenant,omitempty"`
}

// JobList is the GET /v1/jobs answer: the retained jobs, oldest first.
type JobList struct {
	Jobs []JobSummary `json:"jobs"`
}

// JobState is the DELETE /v1/jobs/{id} answer: "canceling" for a job
// that was running, "deleted" for a finished one.
type JobState struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// Event is one NDJSON line of the POST /v1/experiments stream. A failed
// run ends in an "error" event of this flat shape, not in the envelope:
// the 200 has been sent by then.
type Event struct {
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

// LeaseRequest is the POST /v1/workers/lease body.
type LeaseRequest struct {
	// Worker names the requester (for lease bookkeeping and error
	// messages); required.
	Worker string `json:"worker"`
	// Max bounds the cells granted at once (1 when 0). A grant is one
	// deficit round-robin pop across tenants, largest cells first within
	// a tenant; a Max beyond the backlog grants all of it.
	Max int `json:"max"`
	// WaitMillis long-polls: the server holds the request up to this long
	// waiting for work before answering with an empty grant.
	WaitMillis int64 `json:"wait_ms"`
}

// LeaseGrant answers a lease request; empty Leases means "no work yet".
type LeaseGrant struct {
	Leases []campaign.Lease `json:"leases"`
}

// CompleteRequest is the POST /v1/workers/{lease}/complete body: exactly
// one of Result and Error.
type CompleteRequest struct {
	Result *finject.Result `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// LeaseState answers a heartbeat ("held") and a completion
// ("completed").
type LeaseState struct {
	Lease string `json:"lease"`
	State string `json:"state"`
}

// Health is the GET /healthz answer of a serving fiserver.
type Health struct {
	Status string `json:"status"`
}

// ClusterHealth is the GET /healthz answer of a cluster member that is
// not serving: its role ("standby" or "deposed"), its name and the epoch
// it last held.
type ClusterHealth struct {
	Epoch  uint64 `json:"epoch"`
	Server string `json:"server"`
	Status string `json:"status"`
}

// Error is the /v1 error: a stable machine-readable code derived from
// the status, the human-readable message, and the job the error concerns
// when one exists.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	JobID   string `json:"job_id,omitempty"`
}

// ErrorEnvelope is the body of every non-2xx JSON answer — jobs,
// experiments and the worker protocol.
type ErrorEnvelope struct {
	Error Error `json:"error"`
}

// ErrorCode maps a status code onto the envelope's stable slug.
func ErrorCode(status int) string {
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
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	case http.StatusServiceUnavailable:
		return "unavailable"
	default:
		return "error"
	}
}

// StatusError is a non-2xx answer as a Caller returns it: the status and
// what the envelope held. A body that is not the envelope (a proxy's
// HTML page, the mux's plain 404) leaves the three strings empty; the
// status still stands.
type StatusError struct {
	Status  int
	Code    string
	Message string
	JobID   string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server status %d: %s", e.Status, e.Message)
}

// StatusOf extracts the HTTP status behind err, or 0: a transport error
// has none.
func StatusOf(err error) int {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Status
	}
	return 0
}
