package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/finject"
	"repro/internal/testutil"
)

// newRemoteServer builds a Server whose scheduler executes through a
// lease queue served by the worker endpoints.
func newRemoteServer(t *testing.T, ttl time.Duration) (*httptest.Server, *campaign.Scheduler, *campaign.LeaseQueue) {
	t.Helper()
	q := campaign.NewLeaseQueue(ttl)
	sched := campaign.New(campaign.Config{Executor: campaign.NewRemoteExecutor(q), Workers: 64})
	srv := NewServer(sched)
	srv.ServeWorkers(q)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, sched, q
}

// leaseOnce asks the worker endpoint for up to max cells.
func leaseOnce(t *testing.T, ts *httptest.Server, worker string, max int, wait time.Duration) []campaign.Lease {
	t.Helper()
	var resp struct {
		Leases []campaign.Lease `json:"leases"`
	}
	testutil.PostJSON(t, ts.URL, "/v1/workers/lease",
		map[string]any{"worker": worker, "max": max, "wait_ms": wait.Milliseconds()},
		&resp, http.StatusOK)
	return resp.Leases
}

// completeLease answers one lease over HTTP, expecting wantCode.
func completeLease(t *testing.T, ts *httptest.Server, leaseID string, res *finject.Result, errMsg string, wantCode int) {
	t.Helper()
	body := map[string]any{}
	if errMsg != "" {
		body["error"] = errMsg
	} else {
		body["result"] = res
	}
	testutil.PostJSON(t, ts.URL, "/v1/workers/"+leaseID+"/complete", body, nil, wantCode)
}

// runRemoteCell computes the cell the way a real worker would.
func runRemoteCell(t *testing.T, task campaign.Task) *finject.Result {
	t.Helper()
	spec := task.Spec.Normalize()
	cfg := task.Policy
	cfg.Workers = 2
	res, err := campaign.NewLocalExecutor().Execute(context.Background(),
		campaign.Request{Spec: spec, Key: spec.Key(), Policy: cfg.Policy(spec.CheckpointPolicy())})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWorkerProtocolServesJob(t *testing.T) {
	ts, sched, q := newRemoteServer(t, time.Minute)

	var submitted struct {
		ID string `json:"id"`
	}
	cells := []campaign.CellSpec{testutil.MiniSpec("vectoradd", 41), testutil.MiniSpec("transpose", 41)}
	testutil.PostJSON(t, ts.URL, "/v1/jobs", map[string]any{"cells": cells}, &submitted, http.StatusAccepted)

	// Drain the queue by hand: every cell of the batch must surface as a
	// lease, and completing them finishes the job.
	served := 0
	deadline := time.Now().Add(30 * time.Second)
	for served < len(cells) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d cells surfaced as leases", served, len(cells))
		}
		for _, l := range leaseOnce(t, ts, "w1", 4, 100*time.Millisecond) {
			completeLease(t, ts, l.ID, runRemoteCell(t, l.Task), "", http.StatusOK)
			served++
		}
	}

	var status struct {
		State string      `json:"state"`
		Cells []cellState `json:"cells"`
	}
	for {
		testutil.GetJSON(t, ts.URL, "/v1/jobs/"+submitted.ID, &status)
		if status.State != "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if status.State != "done" {
		t.Fatalf("job %+v", status)
	}
	for i, c := range status.Cells {
		if c.State != "done" || c.Injections != 20 {
			t.Fatalf("cell %d: %+v", i, c)
		}
	}
	if runs := sched.Stats().Runs; runs != 2 {
		t.Fatalf("runs %d, want 2", runs)
	}

	if st := q.Stats(); st.Completed != 2 {
		t.Fatalf("lease queue stats %+v, want 2 completed", st)
	}
}

func TestWorkerDiesMidLease(t *testing.T) {
	// A very short TTL stands in for the dead worker's missing
	// heartbeats.
	ts, _, q := newRemoteServer(t, 50*time.Millisecond)

	var submitted struct {
		ID string `json:"id"`
	}
	testutil.PostJSON(t, ts.URL, "/v1/jobs", map[string]any{"cells": []campaign.CellSpec{testutil.MiniSpec("vectoradd", 43)}},
		&submitted, http.StatusAccepted)

	// Worker 1 leases the cell and dies without completing it.
	var dead []campaign.Lease
	deadline := time.Now().Add(10 * time.Second)
	for len(dead) == 0 && time.Now().Before(deadline) {
		dead = leaseOnce(t, ts, "doomed", 1, 50*time.Millisecond)
	}
	if len(dead) != 1 {
		t.Fatal("cell never leased")
	}
	time.Sleep(100 * time.Millisecond) // TTL passes, lease expires

	// Worker 2 inherits the cell and completes it; the job still lands.
	var second []campaign.Lease
	for len(second) == 0 && time.Now().Before(deadline) {
		second = leaseOnce(t, ts, "survivor", 1, 50*time.Millisecond)
	}
	if len(second) != 1 {
		t.Fatal("expired cell never re-leased")
	}
	if second[0].ID == dead[0].ID {
		t.Fatal("lease id reused after expiry")
	}
	completeLease(t, ts, second[0].ID, runRemoteCell(t, second[0].Task), "", http.StatusOK)

	var status struct {
		State string `json:"state"`
	}
	for {
		testutil.GetJSON(t, ts.URL, "/v1/jobs/"+submitted.ID, &status)
		if status.State != "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished after re-lease")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if status.State != "done" {
		t.Fatalf("job %q after worker death, want done", status.State)
	}

	if st := q.Stats(); st.Expired < 1 {
		t.Fatalf("expiry not counted: %+v", st)
	}
}

func TestDuplicateCompleteOverHTTPIsIdempotent(t *testing.T) {
	ts, _, q := newRemoteServer(t, time.Minute)
	go q.Do(context.Background(), campaign.Task{Spec: testutil.MiniSpec("vectoradd", 44)})

	var leases []campaign.Lease
	deadline := time.Now().Add(10 * time.Second)
	for len(leases) == 0 && time.Now().Before(deadline) {
		leases = leaseOnce(t, ts, "w1", 1, 50*time.Millisecond)
	}
	if len(leases) != 1 {
		t.Fatal("cell never leased")
	}
	res := runRemoteCell(t, leases[0].Task)
	completeLease(t, ts, leases[0].ID, res, "", http.StatusOK)
	completeLease(t, ts, leases[0].ID, res, "", http.StatusOK) // duplicate: still 200
	if st := q.Stats(); st.Completed != 1 {
		t.Fatalf("duplicate complete double-counted: %+v", st)
	}
}

func TestWorkerEndpointValidation(t *testing.T) {
	ts, _, _ := newRemoteServer(t, time.Minute)

	testutil.PostJSON(t, ts.URL, "/v1/workers/lease", map[string]any{"max": 1}, nil, http.StatusBadRequest)
	completeLease(t, ts, "lease-999999", nil, "", http.StatusBadRequest) // neither result nor error
	completeLease(t, ts, "lease-999999", &finject.Result{}, "", http.StatusNotFound)
	testutil.PostJSON(t, ts.URL, "/v1/workers/lease-999999/heartbeat", map[string]any{}, nil, http.StatusGone)

	// Without ServeWorkers the endpoints don't exist.
	plain := httptest.NewServer(NewServer(campaign.New(campaign.Config{})))
	defer plain.Close()
	testutil.PostJSON(t, plain.URL, "/v1/workers/lease", map[string]any{"worker": "w"}, nil, http.StatusNotFound)
}

func TestShutdownDrainsRunningJobs(t *testing.T) {
	// In-process execution, big enough batch to still be running.
	sched := campaign.New(campaign.Config{Workers: 1, CampaignWorkers: 1})
	srv := NewServer(sched)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var cells []campaign.CellSpec
	for i := uint64(0); i < 8; i++ {
		s := testutil.MiniSpec("matrixMul", 300+i)
		s.Injections = 200
		cells = append(cells, s)
	}
	var submitted struct {
		ID string `json:"id"`
	}
	testutil.PostJSON(t, ts.URL, "/v1/jobs", map[string]any{"cells": cells}, &submitted, http.StatusAccepted)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// After the drain the job has settled (canceled or done, not
	// running) and new submissions bounce.
	var status struct {
		State string `json:"state"`
	}
	testutil.GetJSON(t, ts.URL, "/v1/jobs/"+submitted.ID, &status)
	if status.State == "running" {
		t.Fatalf("job still running after Shutdown")
	}
	testutil.PostJSON(t, ts.URL, "/v1/jobs", map[string]any{"cells": cells[:1]}, nil, http.StatusServiceUnavailable)
}

func TestLeaseTaskWireFormat(t *testing.T) {
	// The wire task is (spec, policy) and nothing else: a worker can
	// reconstruct the campaign from the registries alone.
	task := campaign.Task{
		Spec:   testutil.MiniSpec("vectoradd", 45).Normalize(),
		Policy: finject.Config{Margin: 0.05, Confidence: 0.95},
	}
	buf, err := json.Marshal(task)
	if err != nil {
		t.Fatal(err)
	}
	var back campaign.Task
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Spec != task.Spec || !back.Policy.Equal(task.Policy) || back.Corr != task.Corr {
		t.Fatalf("task round-trip changed it:\n%+v\n%+v", task, back)
	}
	if _, err := back.Spec.Campaign(); err != nil {
		t.Fatal(err)
	}
}
