package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/experiment"
)

// TestRunExperimentStream walks the happy path: events stream in order,
// the callback sees every one, and the final result comes back decoded.
func TestRunExperimentStream(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/experiments" {
			t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
		}
		var spec experiment.Spec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			t.Errorf("undecodable spec: %v", err)
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"event":"start","id":"job-000042","total":2}`)
		fmt.Fprintln(w, `{"event":"cell","done":1,"total":2,"cached":true}`)
		fmt.Fprintln(w, `{"event":"result","result":{"chips":["Mini NVIDIA"]}}`)
	}))
	defer ts.Close()

	var events []string
	c := &Client{Base: ts.URL}
	res, err := c.RunExperiment(context.Background(), experiment.Spec{Version: 1}, func(ev Event) {
		events = append(events, ev.Event)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chips) != 1 || res.Chips[0] != "Mini NVIDIA" {
		t.Fatalf("result %+v", res)
	}
	if strings.Join(events, ",") != "start,cell,result" {
		t.Fatalf("event order %v", events)
	}
}

// TestRunExperimentStreamInterrupted kills the stream mid-flight — the
// server dies after a progress event, before the result — and the
// client must report the truncation, not fabricate a result.
func TestRunExperimentStreamInterrupted(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"event":"start","id":"job-000001","total":3}`)
		fmt.Fprintln(w, `{"event":"cell","done":1,"total":3}`)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		// Connection drops here: no result event ever arrives.
	}))
	defer ts.Close()

	c := &Client{Base: ts.URL}
	res, err := c.RunExperiment(context.Background(), experiment.Spec{}, nil)
	if res != nil {
		t.Fatalf("truncated stream produced a result: %+v", res)
	}
	if err == nil || !strings.Contains(err.Error(), "stream ended without a result event") {
		t.Fatalf("err = %v, want the truncation error", err)
	}
}

// TestRunExperimentServerError maps a streamed error event to a client
// error carrying the server's message.
func TestRunExperimentServerError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"event":"start","id":"job-000001"}`)
		fmt.Fprintln(w, `{"event":"error","error":"chip exploded"}`)
	}))
	defer ts.Close()

	c := &Client{Base: ts.URL}
	if _, err := c.RunExperiment(context.Background(), experiment.Spec{}, nil); err == nil || !strings.Contains(err.Error(), "chip exploded") {
		t.Fatalf("err = %v, want the server's message", err)
	}
}

// TestStatusCodeExtraction pins the non-2xx contract: every API call
// surfaces the server's status through api.StatusOf and its JSON error
// body through Error, and transport failures answer 0.
func TestStatusCodeExtraction(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch r.URL.Path {
		case "/v1/jobs/job-000404":
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprintln(w, `{"error":{"code":"not_found","message":"no such job","job_id":"job-000404"}}`)
		case "/v1/jobs/job-000409/result":
			w.WriteHeader(http.StatusConflict)
			fmt.Fprintln(w, `{"error":{"code":"conflict","message":"job still running","job_id":"job-000409"}}`)
		case "/v1/jobs/job-000502":
			// Not the envelope (a proxy's error page): the status must
			// survive on its own.
			w.WriteHeader(http.StatusBadGateway)
			fmt.Fprintln(w, `<html>bad gateway</html>`)
		case "/v1/experiments":
			w.WriteHeader(http.StatusBadRequest)
			fmt.Fprintln(w, `{"error":{"code":"bad_request","message":"bad spec"}}`)
		}
	}))
	defer ts.Close()
	c := &Client{Base: ts.URL}
	ctx := context.Background()

	_, err := c.Status(ctx, "job-000404")
	if api.StatusOf(err) != http.StatusNotFound || !strings.Contains(err.Error(), "no such job") {
		t.Fatalf("status err = %v (code %d)", err, api.StatusOf(err))
	}
	_, err = c.ExperimentResult(ctx, "job-000409")
	if api.StatusOf(err) != http.StatusConflict || !strings.Contains(err.Error(), "job still running") {
		t.Fatalf("result err = %v (code %d)", err, api.StatusOf(err))
	}
	if _, err = c.Status(ctx, "job-000502"); api.StatusOf(err) != http.StatusBadGateway {
		t.Fatalf("non-envelope err = %v (code %d)", err, api.StatusOf(err))
	}
	_, err = c.RunExperiment(ctx, experiment.Spec{}, nil)
	if api.StatusOf(err) != http.StatusBadRequest || !strings.Contains(err.Error(), "bad spec") {
		t.Fatalf("experiment err = %v (code %d)", err, api.StatusOf(err))
	}

	// A server that is simply gone is a transport error: code 0, so
	// callers (WaitDone) can tell "away" from "authoritative no".
	dead := &Client{Base: "http://127.0.0.1:1"}
	_, err = dead.Status(ctx, "job-000001")
	if err == nil || api.StatusOf(err) != 0 {
		t.Fatalf("dead server err = %v (code %d), want transport error with code 0", err, api.StatusOf(err))
	}
}

// TestWaitDoneRidesOutRestart aims WaitDone at a server that answers
// with transport-level failures (connection drops) for a while — a
// restarting fiserver — and then comes back with a finished job. The
// wait must survive the outage and return the final status.
func TestWaitDoneRidesOutRestart(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			fmt.Fprintln(w, `{"id":"job-000001","state":"running","done":1,"total":3}`)
		case 2, 3:
			// Drop the connection without a response: what a client sees
			// while the server is being restarted.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("recorder cannot hijack")
				return
			}
			conn, _, _ := hj.Hijack()
			conn.Close()
		default:
			fmt.Fprintln(w, `{"id":"job-000001","state":"done","done":3,"total":3}`)
		}
	}))
	defer ts.Close()

	c := &Client{Base: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := c.WaitDone(ctx, "job-000001")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Done != 3 {
		t.Fatalf("final status %+v", st)
	}
	if n := calls.Load(); n < 4 {
		t.Fatalf("server saw %d polls, want the client to poll through the outage", n)
	}
}

// TestWaitDoneAuthoritativeError: a real server-side answer (404) ends
// the wait immediately — only transport errors are retried.
func TestWaitDoneAuthoritativeError(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprintln(w, `{"error":{"code":"not_found","message":"no such job"}}`)
	}))
	defer ts.Close()

	c := &Client{Base: ts.URL}
	_, err := c.WaitDone(context.Background(), "job-000009")
	if api.StatusOf(err) != http.StatusNotFound {
		t.Fatalf("err = %v, want 404 passed through", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("client retried an authoritative 404 (%d calls)", calls.Load())
	}
}

// TestWaitDoneContextCancel: with the server away for good, the wait
// ends when (and only when) the context does.
func TestWaitDoneContextCancel(t *testing.T) {
	c := &Client{Base: "http://127.0.0.1:1"}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	_, err := c.WaitDone(ctx, "job-000001")
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestWaitDoneRetries503 aims WaitDone at a cluster standby: 503 is a
// "not me, try again" answer, not an authoritative failure, so the wait
// must ride it out until the (new) owner starts answering.
func TestWaitDoneRetries503(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 3 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":{"code":"unavailable","message":"server b is standby: it does not own the job store"}}`)
			return
		}
		fmt.Fprintln(w, `{"id":"job-000001","state":"done","done":3,"total":3}`)
	}))
	defer ts.Close()

	c := &Client{Base: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := c.WaitDone(ctx, "job-000001")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" {
		t.Fatalf("final status %+v", st)
	}
	if calls.Load() < 4 {
		t.Fatalf("server saw %d polls, want the 503s retried", calls.Load())
	}
}

// TestWaitDoneBacksOffDuringOutage pins the backoff: against a server
// that drops every connection, the retry interval must grow, so a fixed
// observation window sees far fewer polls than the 50ms cadence would
// produce (~18 in 900ms), and the wait still ends exactly at the
// context deadline.
func TestWaitDoneBacksOffDuringOutage(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Error("recorder cannot hijack")
			return
		}
		conn, _, _ := hj.Hijack()
		conn.Close()
	}))
	defer ts.Close()

	c := &Client{Base: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 900*time.Millisecond)
	defer cancel()
	_, err := c.WaitDone(ctx, "job-000001")
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// Exponential growth from 50ms with jitter in [d/2, d) fits at most
	// ~7 attempts into 900ms; leave slack for scheduler noise.
	if n := calls.Load(); n < 2 || n > 10 {
		t.Fatalf("server saw %d polls in 900ms, want backed-off retries (2..10)", n)
	}
}

// TestAPIKeyHeader: a configured key rides every request as a Bearer
// token; without one the header stays absent.
func TestAPIKeyHeader(t *testing.T) {
	var lastAuth atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lastAuth.Store(r.Header.Get("Authorization"))
		switch r.URL.Path {
		case "/v1/experiments":
			fmt.Fprintln(w, `{"event":"result","result":{"chips":["Mini NVIDIA"]}}`)
		default:
			fmt.Fprintln(w, `{"id":"job-000001","state":"done"}`)
		}
	}))
	defer ts.Close()

	ctx := context.Background()
	c := &Client{Base: ts.URL, APIKey: "key-acme"}
	if _, err := c.Status(ctx, "job-000001"); err != nil {
		t.Fatal(err)
	}
	if got := lastAuth.Load(); got != "Bearer key-acme" {
		t.Fatalf("Status sent Authorization %q", got)
	}
	if _, err := c.RunExperiment(ctx, experiment.Spec{}, nil); err != nil {
		t.Fatal(err)
	}
	if got := lastAuth.Load(); got != "Bearer key-acme" {
		t.Fatalf("RunExperiment sent Authorization %q", got)
	}

	bare := &Client{Base: ts.URL}
	if _, err := bare.Status(ctx, "job-000001"); err != nil {
		t.Fatal(err)
	}
	if got := lastAuth.Load(); got != "" {
		t.Fatalf("keyless client sent Authorization %q", got)
	}
}

// TestJobsListing decodes the GET /v1/jobs rows in listing order.
func TestJobsListing(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs" || r.Method != http.MethodGet {
			t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
		}
		fmt.Fprintln(w, `{"jobs":[
			{"id":"job-000001","kind":"batch","state":"done","done":3,"total":3},
			{"id":"job-000002","kind":"experiment","state":"running","done":1,"total":8,"tenant":"acme"}]}`)
	}))
	defer ts.Close()

	// A base as a shell or a config file hands it over: the slash kept,
	// the mux would redirect "//v1/jobs".
	c := &Client{Base: " " + ts.URL + "/ "}
	jobs, err := c.Jobs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].ID != "job-000001" || jobs[1].Kind != "experiment" || jobs[1].Done != 1 || jobs[1].Tenant != "acme" {
		t.Fatalf("jobs %+v", jobs)
	}
}

// TestCancelAndHealthy covers the two bodyless calls.
func TestCancelAndHealthy(t *testing.T) {
	var gotCancel atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodDelete && r.URL.Path == "/v1/jobs/job-000001":
			gotCancel.Store(true)
			fmt.Fprintln(w, `{"id":"job-000001","state":"canceling"}`)
		case r.URL.Path == "/healthz":
			fmt.Fprintln(w, `{"status":"ok"}`)
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	defer ts.Close()

	c := &Client{Base: ts.URL}
	if err := c.Cancel(context.Background(), "job-000001"); err != nil || !gotCancel.Load() {
		t.Fatalf("cancel: %v (delivered %v)", err, gotCancel.Load())
	}
	if err := c.Healthy(context.Background()); err != nil {
		t.Fatalf("healthy: %v", err)
	}
}
