package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/client"
	"repro/internal/experiment"
	"repro/internal/testutil"
)

// awaitJob polls a job until it leaves "running" and returns its final
// status document.
func awaitJob(t *testing.T, ts *httptest.Server, id string) (status struct {
	State string           `json:"state"`
	Cells []api.CellStatus `json:"cells"`
}) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if testutil.GetJSON(t, ts.URL, "/v1/jobs/"+id, &status) != http.StatusOK {
			t.Fatal("status not OK")
		}
		if status.State != "running" {
			return status
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobPolicyAdaptive submits a batch under an adaptive policy and
// checks that the realized injection counts stop below the cap, that the
// per-cell status reports them, and that the scheduler stats surface the
// injection totals and upgrades.
func TestJobPolicyAdaptive(t *testing.T) {
	srv, sched := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const cap = 800
	spec := testutil.MiniSpec("vectoradd", 3)
	spec.Injections = cap

	var submitted struct {
		ID string `json:"id"`
	}
	req := map[string]any{
		"cells":  []campaign.CellSpec{spec},
		"policy": map[string]any{"margin": 0.1, "confidence": 0.99},
	}
	testutil.PostJSON(t, ts.URL, "/v1/jobs", req, &submitted, http.StatusAccepted)
	status := awaitJob(t, ts, submitted.ID)
	if status.State != "done" {
		t.Fatalf("final status %+v", status)
	}
	realized := status.Cells[0].Injections
	if realized <= 0 || realized >= cap {
		t.Fatalf("cell realized %d injections, want adaptive stop below cap %d", realized, cap)
	}

	// The same cell submitted fixed-size must upgrade the cached result.
	req = map[string]any{"cells": []campaign.CellSpec{spec}}
	testutil.PostJSON(t, ts.URL, "/v1/jobs", req, &submitted, http.StatusAccepted)
	status = awaitJob(t, ts, submitted.ID)
	if status.State != "done" {
		t.Fatalf("final status %+v", status)
	}
	if got := status.Cells[0].Injections; got != cap {
		t.Fatalf("fixed-size resubmit realized %d injections, want the cap %d", got, cap)
	}
	if st := sched.Stats(); st.Upgrades != 1 || st.Runs != 2 {
		t.Fatalf("scheduler stats %+v, want one upgrade over two runs", st)
	}

	if st := sched.Stats(); st.Injections != int64(realized+cap) {
		t.Fatalf("scheduler stats %+v, want %d injections", st, realized+cap)
	}
}

// TestJobPolicyMaxInjections: the wire policy's max_injections overrides
// each cell's cap (and therefore its identity).
func TestJobPolicyMaxInjections(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spec := testutil.MiniSpec("vectoradd", 4)
	spec.Injections = 500
	var submitted struct {
		ID string `json:"id"`
	}
	req := map[string]any{
		"cells":  []campaign.CellSpec{spec},
		"policy": map[string]any{"max_injections": 30},
	}
	testutil.PostJSON(t, ts.URL, "/v1/jobs", req, &submitted, http.StatusAccepted)
	status := awaitJob(t, ts, submitted.ID)
	if status.State != "done" {
		t.Fatalf("final status %+v", status)
	}
	if got := status.Cells[0].Spec.Injections; got != 30 {
		t.Fatalf("normalized spec cap %d, want the policy override 30", got)
	}
	if got := status.Cells[0].Injections; got != 30 {
		t.Fatalf("realized %d injections, want 30", got)
	}
}

// TestJobPolicyValidation: out-of-range policies are rejected up front,
// matching an experiment spec's policy rules.
func TestJobPolicyValidation(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, policy := range []map[string]any{
		{"margin": 5},
		{"margin": -0.1},
		{"confidence": 1.5},
		{"confidence": -1},
		{"max_injections": -2},
	} {
		req := map[string]any{"cells": []campaign.CellSpec{testutil.MiniSpec("vectoradd", 9)}, "policy": policy}
		testutil.PostJSON(t, ts.URL, "/v1/jobs", req, nil, http.StatusBadRequest)
	}
}

// TestJobRefusesUnknownFields: POST /v1/jobs decodes strictly, so a
// misspelt policy or cell field answers 400 naming it instead of running
// the batch under the default it failed to override.
func TestJobRefusesUnknownFields(t *testing.T) {
	srv, sched := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cell := map[string]any{"chip": "Mini NVIDIA", "benchmark": "vectoradd", "injections": 20, "seed": 9}
	for _, tc := range []struct {
		field string
		req   map[string]any
	}{
		{"margn", map[string]any{"cells": []any{cell}, "policy": map[string]any{"margn": 0.3}}},
		{"injectons", map[string]any{"cells": []any{map[string]any{"chip": "Mini NVIDIA", "benchmark": "vectoradd", "injectons": 20}}}},
		{"polcy", map[string]any{"cells": []any{cell}, "polcy": map[string]any{"margin": 0.3}}},
	} {
		var envelope struct {
			Error api.Error `json:"error"`
		}
		testutil.PostJSON(t, ts.URL, "/v1/jobs", tc.req, &envelope, http.StatusBadRequest)
		if envelope.Error.Code != "bad_request" || !strings.Contains(envelope.Error.Message, `unknown field "`+tc.field+`"`) {
			t.Errorf("envelope %+v, want bad_request naming %q", envelope.Error, tc.field)
		}
	}
	if st := sched.Stats(); st.Runs != 0 || st.GoldenRuns != 0 {
		t.Fatalf("a refused batch ran work: %+v", st)
	}
}

// TestFigureAdaptiveQuery drives a figure run under an adaptive policy:
// the margin and confidence the retired GET /v1/figure took as query
// parameters ride in the figure spec's policy block.
func TestFigureAdaptiveQuery(t *testing.T) {
	srv, sched := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := &client.Client{Base: ts.URL}
	ctx := context.Background()

	spec, err := experiment.Figure(1)
	if err != nil {
		t.Fatal(err)
	}
	spec.Chips, spec.Benchmarks = []string{"Mini NVIDIA"}, []string{"vectoradd"}
	spec.Injections = 600
	spec.Policy.Margin = 0.1
	res, err := cl.RunExperiment(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := sched.Stats()
	if st.Runs != 1 {
		t.Fatalf("stats %+v, want one campaign", st)
	}
	if st.Injections <= 0 || st.Injections >= 600 {
		t.Fatalf("figure campaign executed %d injections, want adaptive stop below 600", st.Injections)
	}
	if got := res.Tables[0].Cells[0][0].Injections; int64(got) != st.Injections {
		t.Fatalf("cell reports %d realized injections, scheduler executed %d", got, st.Injections)
	}

	for _, bad := range []experiment.Policy{{Margin: 2}, {Confidence: 1.5}} {
		spec.Policy = bad
		if _, err := cl.RunExperiment(ctx, spec, nil); client.StatusCode(err) != http.StatusBadRequest {
			t.Fatalf("policy %+v: err %v, want 400", bad, err)
		}
	}
}
