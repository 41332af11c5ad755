package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/telemetry"
	"repro/internal/testutil"
	"repro/internal/worker"
)

// TestMetricsEndpointValidExposition boots a server, runs one job, and
// scrapes GET /metrics: the body must be well-formed Prometheus text
// exposition (checked by the same validator cmd/metricslint uses in the
// CI smoke) and must carry all five instrumented subsystem families —
// scheduler, lease queue, injection engine, store, and HTTP.
func TestMetricsEndpointValidExposition(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var submitted struct {
		ID string `json:"id"`
	}
	testutil.PostJSON(t, ts.URL, "/v1/jobs", map[string]any{"cells": []campaign.CellSpec{testutil.MiniSpec("vectoradd", 3)}}, &submitted, http.StatusAccepted)
	testutil.WaitForJob(t, ts.URL, submitted.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	families, err := telemetry.ValidateExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, body)
	}
	if families < 20 {
		t.Fatalf("only %d families exposed, want the full catalog (>= 20)", families)
	}
	for _, group := range []string{"fi_sched_", "fi_lease_", "fi_inject_", "fi_store_", "fi_http_"} {
		if !strings.Contains(string(body), group) {
			t.Fatalf("metric group %s missing from /metrics:\n%s", group, body)
		}
	}
	// The job above ran through the instrumented mux, so the per-route
	// counter must show the route label, not a raw path.
	if !strings.Contains(string(body), `fi_http_requests_total{route="POST /v1/jobs"}`) {
		t.Fatalf("per-route HTTP counter missing:\n%s", body)
	}
}

// TestCorrelationIDCrossesLeaseWire is the end-to-end correlation
// proof: a job submitted to the server runs on a remote worker in
// another "process" (separate worker loop over HTTP), and the worker's
// structured log lines must carry the server-minted job id plus lease
// and cell identities — one grep reconstructs the cell's life across
// both sides of the wire.
func TestCorrelationIDCrossesLeaseWire(t *testing.T) {
	q := campaign.NewLeaseQueue(3 * time.Second)
	sched := campaign.New(campaign.Config{Executor: campaign.NewRemoteExecutor(q), Workers: 8})
	srv := NewServer(sched)
	srv.ServeWorkers(q)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	sink := &testutil.SyncWriter{}
	wctx, stopWorker := context.WithCancel(context.Background())
	w := worker.New(&worker.Client{Base: ts.URL, Name: "corr-w1"}, worker.Options{
		Concurrency: 1, CampaignWorkers: 2, Poll: 50 * time.Millisecond,
		Logger: telemetry.NewLogger(sink, 0 /* info */, "json"),
	})
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		w.Run(wctx)
	}()
	defer func() {
		stopWorker()
		<-workerDone
	}()

	var submitted struct {
		ID string `json:"id"`
	}
	testutil.PostJSON(t, ts.URL, "/v1/jobs", map[string]any{"cells": []campaign.CellSpec{testutil.MiniSpec("vectoradd", 5)}}, &submitted, http.StatusAccepted)
	testutil.WaitForJob(t, ts.URL, submitted.ID)

	// The job is done server-side, but the worker writes its completion
	// line after its Complete call returns — give it a moment.
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(sink.String(), `"msg":"cell completed"`) {
		if time.Now().After(deadline) {
			t.Fatalf("worker never logged the completion:\n%s", sink.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	logs := sink.String()
	if !strings.Contains(logs, `"job":"`+submitted.ID+`"`) {
		t.Fatalf("worker logs never mention the server-minted job id %s:\n%s", submitted.ID, logs)
	}
	for _, field := range []string{`"lease":"`, `"cell":"`} {
		if !strings.Contains(logs, field) {
			t.Fatalf("worker logs missing %s:\n%s", field, logs)
		}
	}
}
