package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/finject"
	"repro/internal/service"
)

// startRemoteService builds a fiserver handler in remote-worker mode and
// returns its test server, scheduler and queue.
func startRemoteService(t *testing.T, ttl time.Duration) (*httptest.Server, *campaign.Scheduler, *campaign.LeaseQueue) {
	t.Helper()
	q := campaign.NewLeaseQueue(ttl)
	sched := campaign.New(campaign.Config{Executor: campaign.NewRemoteExecutor(q), Workers: 64})
	srv := service.NewServer(sched)
	srv.ServeWorkers(q)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, sched, q
}

func startWorker(t *testing.T, ts *httptest.Server, name string, opts Options) (*Worker, context.CancelFunc) {
	t.Helper()
	if opts.Poll == 0 {
		opts.Poll = 20 * time.Millisecond
	}
	w := New(&Client{Base: ts.URL, Name: name}, opts)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("worker did not stop")
		}
	})
	return w, cancel
}

func spec(bench string, seed uint64, n int) campaign.CellSpec {
	return campaign.CellSpec{Chip: "Mini NVIDIA", Benchmark: bench, Injections: n, Seed: seed}.Normalize()
}

func TestWorkerDrainsQueue(t *testing.T) {
	ts, sched, _ := startRemoteService(t, time.Minute)
	w, _ := startWorker(t, ts, "w1", Options{Concurrency: 2, CampaignWorkers: 1})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	batch := []campaign.CellSpec{
		spec("vectoradd", 1, 30), spec("transpose", 1, 30), spec("vectoradd", 2, 30),
	}
	cs := make([]int, 0, len(batch))
	for i, s := range batch {
		c, err := s.Campaign()
		if err != nil {
			t.Fatal(err)
		}
		res, err := sched.Run(ctx, c)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		cs = append(cs, res.Injections)
	}
	for i, n := range cs {
		if n != 30 {
			t.Fatalf("cell %d realized %d injections", i, n)
		}
	}
	// The queue releases waiters before the worker finishes reading the
	// completion response, so the counter may trail by a beat.
	deadline := time.Now().Add(5 * time.Second)
	for w.Completed() != 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := w.Completed(); got != 3 {
		t.Fatalf("worker completed %d cells, want 3", got)
	}
}

// TestWorkerRunsLegacyLease: a server built before the checkpoint
// interval was retired sends it in the lease, as the spec's
// "checkpoint_interval" and the policy's "checkpoint":{"interval":N}.
// Both decode leniently and drop, and the worker runs the cell to the
// result a local execution gives.
func TestWorkerRunsLegacyLease(t *testing.T) {
	q := campaign.NewLeaseQueue(time.Minute)
	srv := service.NewServer(campaign.New(campaign.Config{Executor: campaign.NewRemoteExecutor(q)}))
	srv.ServeWorkers(q)
	var rewritten atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/workers/lease" {
			srv.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if bytes.Contains(body, []byte(`"watchdog_factor":`)) {
			if !bytes.Contains(body, []byte(`"checkpoint":{}`)) {
				t.Errorf("lease policy carries no auto checkpoint knob: %s", body)
			}
			body = bytes.ReplaceAll(body, []byte(`"watchdog_factor":`), []byte(`"checkpoint_interval":512,"watchdog_factor":`))
			body = bytes.ReplaceAll(body, []byte(`"checkpoint":{}`), []byte(`"checkpoint":{"interval":512}`))
			rewritten.Add(1)
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.Header().Del("Content-Length")
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	t.Cleanup(ts.Close)
	startWorker(t, ts, "w1", Options{CampaignWorkers: 1})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s := spec("vectoradd", 7, 20)
	ck := finject.Checkpoint{}
	got, err := q.Do(ctx, campaign.Task{Spec: s, Policy: finject.Config{Version: finject.ConfigVersion, Checkpoint: &ck}})
	if err != nil {
		t.Fatal(err)
	}
	if rewritten.Load() == 0 {
		t.Fatal("no lease carried the retired interval")
	}
	want, err := campaign.NewLocalExecutor().Execute(ctx, campaign.Request{Spec: s, Key: s.Key()})
	if err != nil {
		t.Fatal(err)
	}
	gotJS, _ := json.Marshal(got)
	wantJS, _ := json.Marshal(want)
	if !bytes.Equal(gotJS, wantJS) {
		t.Fatalf("worker result differs from a local execution:\nworker: %s\nlocal:  %s", gotJS, wantJS)
	}
}

func TestWorkerReportsExecutionErrors(t *testing.T) {
	ts, _, q := startRemoteService(t, time.Minute)
	w, _ := startWorker(t, ts, "w1", Options{})

	bad := campaign.CellSpec{Chip: "no such chip", Benchmark: "vectoradd", Injections: 10}.Normalize()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err := q.Do(ctx, campaign.Task{Spec: bad})
	if err == nil {
		t.Fatal("unknown chip executed successfully")
	}
	deadline := time.Now().Add(5 * time.Second)
	for w.Failed() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if w.Failed() != 1 {
		t.Fatalf("failed count %d, want 1", w.Failed())
	}
}

func TestWorkerSurvivesServerAbsence(t *testing.T) {
	// Point the worker at a dead address: Run must keep retrying, not
	// exit, and must stop promptly on cancel.
	w := New(&Client{Base: "http://127.0.0.1:1", Name: "w"}, Options{Poll: 10 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	time.Sleep(50 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("worker exited against a dead server: %v", err)
	default:
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v on cancel", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not stop on cancel")
	}
}

// TestWorkerFailsOverToLiveServer points a worker at a two-server list
// whose first entry is dead: the first lease attempt rotates to the
// live server and the queue drains there, no configuration change
// needed.
func TestWorkerFailsOverToLiveServer(t *testing.T) {
	ts, sched, _ := startRemoteService(t, time.Minute)
	w := New(&Client{Base: "http://127.0.0.1:1, " + ts.URL, Name: "w"}, Options{Poll: 20 * time.Millisecond, CampaignWorkers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()
	defer func() { cancel(); <-done }()

	c, err := spec("vectoradd", 3, 20).Campaign()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Run(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Injections != 20 {
		t.Fatalf("realized %d injections", res.Injections)
	}
}

// TestWorkerRotatesAwayFromStandby: a cluster standby answers every
// worker call 503; the client must stick to the active server after one
// bounce rather than alternating.
func TestWorkerRotatesAwayFromStandby(t *testing.T) {
	var standbyHits atomic.Int64
	standby := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		standbyHits.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"error":{"code":"unavailable","message":"standby"}}`)
	}))
	defer standby.Close()
	ts, sched, _ := startRemoteService(t, time.Minute)

	w := New(&Client{Base: standby.URL + "," + ts.URL, Name: "w"}, Options{Poll: 20 * time.Millisecond, CampaignWorkers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()
	defer func() { cancel(); <-done }()

	for i := 0; i < 3; i++ {
		c, err := spec("vectoradd", uint64(10+i), 20).Campaign()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sched.Run(ctx, c); err != nil {
			t.Fatal(err)
		}
	}
	// Sticky rotation: the standby is consulted once (maybe twice under
	// races), never once per lease.
	if n := standbyHits.Load(); n > 2 {
		t.Fatalf("standby consulted %d times, want sticky failover", n)
	}
}

// TestClientBaseListParsing pins the comma-list contract as the servers
// see it: whitespace trimmed, trailing slashes dropped (the mux would
// redirect "//v1/..." and the POST would be replayed as a GET), the
// rotation sticky, single-server lists never rotating. The cursor's own
// rules (a stale failover must not advance it) are pinned where it
// lives, in internal/api.
func TestClientBaseListParsing(t *testing.T) {
	var aHits, bHits atomic.Int64
	serve := func(hits *atomic.Int64, status int, body string) *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost || r.URL.Path != "/v1/workers/lease" {
				t.Errorf("server saw %s %s", r.Method, r.URL.Path)
			}
			hits.Add(1)
			w.WriteHeader(status)
			fmt.Fprintln(w, body)
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	a := serve(&aHits, http.StatusServiceUnavailable, `{"error":{"code":"unavailable","message":"standby"}}`)
	b := serve(&bHits, http.StatusOK, `{"leases":[]}`)
	ctx := context.Background()

	c := &Client{Base: " " + a.URL + "/ , " + b.URL + " ", Name: "w"}
	if _, err := c.Lease(ctx, 1, 0); err == nil {
		t.Fatal("the standby's 503 was not reported")
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Lease(ctx, 1, 0); err != nil {
			t.Fatalf("after failover: %v", err)
		}
	}
	if aHits.Load() != 1 || bHits.Load() != 2 {
		t.Fatalf("first server asked %d times, second %d; want 1 and 2", aHits.Load(), bHits.Load())
	}

	solo := &Client{Base: a.URL + "/", Name: "w"}
	for i := 0; i < 2; i++ {
		if _, err := solo.Lease(ctx, 1, 0); err == nil {
			t.Fatal("the standby's 503 was not reported")
		}
	}
	if aHits.Load() != 3 {
		t.Fatalf("single-server list rotated: its server was asked %d times, want 3", aHits.Load())
	}
}

func TestClientHeartbeatAgainstQueue(t *testing.T) {
	ts, _, q := startRemoteService(t, time.Minute)
	ctx := context.Background()
	go q.Do(ctx, campaign.Task{Spec: spec("vectoradd", 5, 10)})

	c := &Client{Base: ts.URL, Name: "w1"}
	var leases []campaign.Lease
	deadline := time.Now().Add(10 * time.Second)
	for len(leases) == 0 && time.Now().Before(deadline) {
		var err error
		leases, err = c.Lease(ctx, 1, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(leases) != 1 {
		t.Fatal("no lease")
	}
	alive, err := c.Heartbeat(ctx, leases[0].ID)
	if err != nil || !alive {
		t.Fatalf("heartbeat alive=%v err=%v", alive, err)
	}
	alive, err = c.Heartbeat(ctx, "lease-999999")
	if err != nil || alive {
		t.Fatalf("unknown lease heartbeat alive=%v err=%v", alive, err)
	}
}
