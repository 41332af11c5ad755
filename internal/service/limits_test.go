package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/testutil"
)

// blanks is an endless body of JSON whitespace: a valid prefix of any
// request, so only the size ceiling can end the decode.
type blanks struct{}

func (blanks) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestOversizedBodiesAnswer413: every route that decodes a request body
// bounds it. A body one byte over the route's ceiling answers 413 in the
// error envelope — never an unbounded buffer — and the server goes on
// serving.
func TestOversizedBodiesAnswer413(t *testing.T) {
	ts, _, _ := newRemoteServer(t, time.Minute)
	for _, tc := range []struct {
		path  string
		limit int64
	}{
		{"/v1/jobs", maxSubmitBody},
		{"/v1/experiments", maxSpecBody},
		{"/v1/workers/lease", maxLeaseBody},
		{"/v1/workers/lease-0-1/complete", maxCompleteBody},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", io.LimitReader(blanks{}, tc.limit+1))
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		var envelope struct {
			Error api.Error `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&envelope)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || envelope.Error.Code != "too_large" {
			t.Errorf("%s: status %d, envelope %+v (%v), want 413 too_large", tc.path, resp.StatusCode, envelope, err)
		}
		// One byte fewer is an ordinary malformed request.
		resp, err = http.Post(ts.URL+tc.path, "application/json", io.LimitReader(blanks{}, tc.limit))
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s at the limit: status %d, want 400", tc.path, resp.StatusCode)
		}
		healthz, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatalf("server gone after %s: %v", tc.path, err)
		}
		healthz.Body.Close()
		if healthz.StatusCode != http.StatusOK {
			t.Fatalf("healthz after %s: status %d", tc.path, healthz.StatusCode)
		}
	}
}

// TestJobCeilings pins the two job-size ceilings where start applies
// them: exactly at a ceiling is admitted, one past it is refused, for the
// cells either kind of job compiles to.
func TestJobCeilings(t *testing.T) {
	grid := func(cells, injections int) []campaign.CellSpec {
		specs := make([]campaign.CellSpec, cells)
		for i := range specs {
			specs[i] = campaign.CellSpec{Chip: "Mini NVIDIA", Benchmark: "vectoradd", Injections: injections, Seed: uint64(i)}
		}
		return specs
	}
	for _, tc := range []struct {
		name   string
		specs  []campaign.CellSpec
		refuse bool
	}{
		{"at both ceilings", grid(maxJobCells, maxCellInjections), false},
		{"one cell too many", grid(maxJobCells+1, 5), true},
		{"one injection too many", grid(3, maxCellInjections+1), true},
		{"defaulted injections", grid(1, 0), false},
	} {
		if _, err := jobCost(tc.specs); (err != nil) != tc.refuse {
			t.Errorf("%s: jobCost = %v, want refusal %v", tc.name, err, tc.refuse)
		}
	}
	// The largest admissible job's cost is the product of the ceilings,
	// comfortably inside an int64.
	if got, _ := jobCost(grid(maxJobCells, maxCellInjections)); got != int64(maxJobCells)*maxCellInjections || got <= 0 {
		t.Fatalf("cost of the largest admissible job = %d, want %d", got, int64(maxJobCells)*maxCellInjections)
	}
}

// TestACEOnlyExperimentCostsNoInjections: an ACE-only experiment runs no
// injection, so the inj-rate quota charges it nothing; its FI sibling is
// charged its cells' caps.
func TestACEOnlyExperimentCostsNoInjections(t *testing.T) {
	for _, tc := range []struct {
		estimator string
		want      int64
	}{{"ace", 0}, {"fi", 2 * 2 * 2 * 300}} {
		work, err := compileExperiment(strings.NewReader(`{"chips": ["Mini NVIDIA", "Mini AMD"], "benchmarks": ["vectoradd", "transpose"],
			"structures": ["register-file", "local-memory"], "injections": 300, "estimator": "` + tc.estimator + `"}`))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := jobCost(work.specs); err != nil || got != tc.want {
			t.Errorf("%s experiment costs (%d, %v), want %d injections", tc.estimator, got, err, tc.want)
		}
	}
}

// TestBatchRefusesGoldenOnlyCells: golden_only rides the lease wire, but
// only an ACE-only experiment makes such a cell. A batch naming it answers
// 400, so no tenant can queue reference runs the quota charges nothing
// for, and nothing runs.
func TestBatchRefusesGoldenOnlyCells(t *testing.T) {
	srv, sched := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cell := testutil.MiniSpec("vectoradd", 1)
	cell.GoldenOnly = true
	var envelope struct {
		Error api.Error `json:"error"`
	}
	testutil.PostJSON(t, ts.URL, "/v1/jobs", map[string]any{"cells": []campaign.CellSpec{testutil.MiniSpec("transpose", 1), cell}}, &envelope, http.StatusBadRequest)
	if envelope.Error.Code != "bad_request" || !strings.Contains(envelope.Error.Message, "cell 1: golden_only") {
		t.Fatalf("envelope %+v, want bad_request naming cell 1's golden_only", envelope.Error)
	}
	if st := sched.Stats(); st.Runs != 0 || st.GoldenRuns != 0 {
		t.Fatalf("a refused batch ran work: %+v", st)
	}
}
