package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
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
	var grant api.LeaseGrant
	testutil.PostJSON(t, ts.URL, "/v1/workers/lease",
		api.LeaseRequest{Worker: worker, Max: max, WaitMillis: wait.Milliseconds()},
		&grant, http.StatusOK)
	return grant.Leases
}

// completeLease answers one lease over HTTP, expecting wantCode.
func completeLease(t *testing.T, ts *httptest.Server, leaseID string, res *finject.Result, errMsg string, wantCode int) {
	t.Helper()
	body := api.CompleteRequest{Result: res}
	if errMsg != "" {
		body = api.CompleteRequest{Error: errMsg}
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
		State string           `json:"state"`
		Cells []api.CellStatus `json:"cells"`
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
	// It travels in the grant both halves of the protocol declare once.
	buf, err := json.Marshal(api.LeaseGrant{Leases: []campaign.Lease{{ID: "lease-0-000001", Task: task, TTLMillis: 60000}}})
	if err != nil {
		t.Fatal(err)
	}
	var grant api.LeaseGrant
	if err := json.Unmarshal(buf, &grant); err != nil || len(grant.Leases) != 1 {
		t.Fatalf("grant %s decoded to %+v: %v", buf, grant, err)
	}
	back := grant.Leases[0].Task
	if back.Spec != task.Spec || !back.Policy.Equal(task.Policy) || back.Corr != task.Corr {
		t.Fatalf("task round-trip changed it:\n%+v\n%+v", task, back)
	}
	if _, err := back.Spec.Campaign(); err != nil {
		t.Fatal(err)
	}
}

// FuzzWorkerProtocol throws arbitrary bytes at the three worker-protocol
// routes of a server whose lease queue holds one pending cell. Whatever
// the bytes: no panic, no 5xx, every non-2xx answer in the error
// envelope, a lease granted only to a request that names its worker, and
// the cell settled only by a body that decodes to a completion, posted
// to the lease that was actually granted (lease ids carry a per-queue
// nonce, so useGranted is how the fuzzer aims at it).
func FuzzWorkerProtocol(f *testing.F) {
	wire := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	seeds := [][]byte{
		// What worker.Client sends to lease and complete: the bodies the
		// server decodes, marshalled from the one declaration of them.
		wire(api.LeaseRequest{Worker: "w1", Max: 4, WaitMillis: 2000}),
		[]byte(`{}`),
		wire(api.CompleteRequest{Result: &finject.Result{Injections: 20, Outcomes: [4]int{18, 1, 1, 0}}}),
		wire(api.CompleteRequest{Error: "device fault"}),
		// The lease wire's legacy policy form (untagged Go field names,
		// matched case-insensitively) — see finject's
		// TestConfigDecodesLegacyPolicyJSON.
		[]byte(`{"Workers":3,"Margin":0.05,"Confidence":0.95,"Checkpoint":{"Off":false,"Interval":128}}`),
		[]byte(`{"WORKER":"w1","Wait_MS":60000}`),
	}
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(a, b, "lease-0-1", true)
			f.Add(a[:len(a)/2], b[:len(b)/2], "../lease", false)
		}
	}

	task := campaign.Task{Spec: testutil.MiniSpec("vectoradd", 1)}
	f.Fuzz(func(t *testing.T, leaseBody, completeBody []byte, leaseID string, useGranted bool) {
		q := campaign.NewLeaseQueue(time.Minute)
		srv := NewServer(campaign.New(campaign.Config{Executor: campaign.NewRemoteExecutor(q)}))
		srv.ServeWorkers(q)
		ctx, cancel := context.WithCancel(context.Background())
		waiter := make(chan struct{})
		go func() {
			defer close(waiter)
			q.Do(ctx, task)
		}()
		defer func() { cancel(); <-waiter }()
		for q.Stats().Pending == 0 {
			runtime.Gosched()
		}

		post := func(path string, body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
			}
			if rec.Code/100 != 2 {
				var envelope struct {
					Error api.Error `json:"error"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope.Error.Code == "" || envelope.Error.Message == "" {
					t.Fatalf("POST %s %q: status %d outside the error envelope: %s", path, body, rec.Code, rec.Body)
				}
			}
			return rec
		}

		// A well-formed lease request may ask to long-poll; never here.
		var lreq api.LeaseRequest
		named := json.NewDecoder(bytes.NewReader(leaseBody)).Decode(&lreq) == nil && lreq.Worker != ""
		if named && lreq.WaitMillis != 0 {
			lreq.WaitMillis = 0
			leaseBody, _ = json.Marshal(lreq)
		}
		var grant api.LeaseGrant
		if rec := post("/v1/workers/lease", leaseBody); rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &grant); err != nil {
				t.Fatalf("lease answer %q: %v", rec.Body, err)
			}
		}
		if granted := len(grant.Leases) == 1; granted != named {
			t.Fatalf("lease request %q: granted %+v, names a worker: %v", leaseBody, grant.Leases, named)
		}

		// One path segment, whatever the bytes: an id with a slash, "", "."
		// or ".." never reaches the protocol — the mux answers those with
		// its own redirect or 404.
		id := url.PathEscape(strings.ReplaceAll(leaseID, "/", "_"))
		if id == "" || id == "." || id == ".." {
			id = "x"
		}
		if useGranted && named {
			id = grant.Leases[0].ID
		}
		if rec := post("/v1/workers/"+id+"/heartbeat", completeBody); (rec.Code == http.StatusOK) != (useGranted && named) {
			t.Fatalf("heartbeat on %q answered %d; lease granted and aimed at: %v", id, rec.Code, useGranted && named)
		}
		post("/v1/workers/"+id+"/complete", completeBody)

		var creq api.CompleteRequest
		completion := json.NewDecoder(bytes.NewReader(completeBody)).Decode(&creq) == nil && (creq.Result != nil || creq.Error != "")
		st := q.Stats()
		if settled := st.Completed+st.Failed > 0; settled != (useGranted && named && completion) {
			t.Fatalf("cell settled: %v (stats %+v) after lease %q, complete %q on %q (granted lease aimed at: %v)",
				settled, st, leaseBody, completeBody, id, useGranted && named)
		}
	})
}
