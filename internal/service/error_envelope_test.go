package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/testutil"
)

// TestErrorEnvelope pins the unified /v1 error shape across the job and
// experiment endpoints: every non-2xx JSON answer is
// {"error":{"code","message","job_id"}}, with the status codes the API
// has always used and job_id present exactly when the request resolved
// to (or named) a job.
func TestErrorEnvelope(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// One finished job so conflict/not-found cases have real ids to hit.
	var submitted struct {
		ID string `json:"id"`
	}
	cells := []campaign.CellSpec{testutil.MiniSpec("vectoradd", 77)}
	testutil.PostJSON(t, ts.URL, "/v1/jobs", map[string]any{"cells": cells}, &submitted, http.StatusAccepted)
	testutil.WaitForJob(t, ts.URL, submitted.ID)

	// One cell past the per-job cell ceiling (a few hundred KB of body,
	// far inside the route's byte ceiling).
	overCells := `{"cells":[` + strings.Repeat(`{"chip":"Mini NVIDIA","benchmark":"vectoradd","injections":5},`, maxJobCells) +
		`{"chip":"Mini NVIDIA","benchmark":"vectoradd","injections":5}]}`
	overInjections := strconv.Itoa(maxCellInjections + 1)

	cases := []struct {
		name       string
		method     string
		path       string
		body       string // JSON request body ("" for none)
		wantStatus int
		wantCode   string
		wantMsg    string // substring of message
		wantJob    string // exact job_id ("" = must be absent)
	}{
		{
			name:   "jobs: bad policy",
			method: http.MethodPost, path: "/v1/jobs",
			body:       `{"cells":[{"chip":"Mini NVIDIA","benchmark":"vectoradd","injections":5,"seed":1}],"policy":{"margin":2}}`,
			wantStatus: http.StatusBadRequest, wantCode: "bad_request", wantMsg: "bad policy margin",
		},
		{
			name:   "jobs: empty batch",
			method: http.MethodPost, path: "/v1/jobs",
			body:       `{"cells":[]}`,
			wantStatus: http.StatusBadRequest, wantCode: "bad_request", wantMsg: "empty batch",
		},
		{
			name:   "jobs: over the cell ceiling",
			method: http.MethodPost, path: "/v1/jobs",
			body:       overCells,
			wantStatus: http.StatusBadRequest, wantCode: "bad_request", wantMsg: "the limit is 10000",
		},
		{
			name:   "jobs: cell over the injection ceiling",
			method: http.MethodPost, path: "/v1/jobs",
			body:       `{"cells":[{"chip":"Mini NVIDIA","benchmark":"vectoradd","injections":` + overInjections + `}]}`,
			wantStatus: http.StatusBadRequest, wantCode: "bad_request", wantMsg: "the limit is 10000000",
		},
		{
			name:   "jobs: policy cap over the injection ceiling",
			method: http.MethodPost, path: "/v1/jobs",
			body:       `{"cells":[{"chip":"Mini NVIDIA","benchmark":"vectoradd","injections":5}],"policy":{"max_injections":` + overInjections + `}}`,
			wantStatus: http.StatusBadRequest, wantCode: "bad_request", wantMsg: "the limit is 10000000",
		},
		{
			// (No spec can reach the cell ceiling: the axes reject duplicates
			// and the registries span under 200 cells. TestJobCeilings covers
			// that pair below the HTTP layer.)
			name:   "experiments: over the injection ceiling",
			method: http.MethodPost, path: "/v1/experiments",
			body:       `{"chips":["Mini NVIDIA"],"benchmarks":["vectoradd"],"injections":` + overInjections + `}`,
			wantStatus: http.StatusBadRequest, wantCode: "bad_request", wantMsg: "the limit is 10000000",
		},
		{
			name:   "jobs: unknown job status",
			method: http.MethodGet, path: "/v1/jobs/job-999999",
			wantStatus: http.StatusNotFound, wantCode: "not_found", wantMsg: "unknown job",
			wantJob: "job-999999",
		},
		{
			name:   "jobs: unknown job cancel",
			method: http.MethodDelete, path: "/v1/jobs/job-999999",
			wantStatus: http.StatusNotFound, wantCode: "not_found", wantMsg: "unknown job",
			wantJob: "job-999999",
		},
		{
			name:   "experiments: bad spec",
			method: http.MethodPost, path: "/v1/experiments",
			body:       `{"name":"broken","injections":-4}`,
			wantStatus: http.StatusBadRequest, wantCode: "bad_request",
		},
		{
			name:   "experiments: body over the limit",
			method: http.MethodPost, path: "/v1/experiments",
			body:       `{"name":"` + strings.Repeat("x", maxSpecBody) + `"}`,
			wantStatus: http.StatusRequestEntityTooLarge, wantCode: "too_large", wantMsg: "exceeds",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rd *bytes.Reader
			if tc.body != "" {
				rd = bytes.NewReader([]byte(tc.body))
			} else {
				rd = bytes.NewReader(nil)
			}
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, rd)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			// Decode through RawMessage first so a legacy flat string
			// error fails loudly rather than silently matching.
			var raw struct {
				Error json.RawMessage `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
				t.Fatal(err)
			}
			var env struct {
				Code    string `json:"code"`
				Message string `json:"message"`
				JobID   string `json:"job_id"`
			}
			if err := json.Unmarshal(raw.Error, &env); err != nil {
				t.Fatalf("error body is not the envelope object: %s", raw.Error)
			}
			if env.Code != tc.wantCode {
				t.Errorf("code %q, want %q", env.Code, tc.wantCode)
			}
			if env.Message == "" || !strings.Contains(env.Message, tc.wantMsg) {
				t.Errorf("message %q, want substring %q", env.Message, tc.wantMsg)
			}
			if env.JobID != tc.wantJob {
				t.Errorf("job_id %q, want %q", env.JobID, tc.wantJob)
			}
		})
	}

	// The 409 conflict path must carry the job's id too. Fetching the
	// result right after submission usually lands while the job still
	// runs; when the race is lost and the job already finished, the 200
	// simply skips the envelope assertions (the conflict site shares
	// httpJobError with the pinned cases above).
	var second struct {
		ID string `json:"id"`
	}
	testutil.PostJSON(t, ts.URL, "/v1/jobs", map[string]any{"cells": []campaign.CellSpec{testutil.MiniSpec("vectoradd", 78)}}, &second, http.StatusAccepted)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + second.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusConflict {
		var raw struct {
			Error json.RawMessage `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
			t.Fatal(err)
		}
		var env struct {
			Code    string `json:"code"`
			Message string `json:"message"`
			JobID   string `json:"job_id"`
		}
		if err := json.Unmarshal(raw.Error, &env); err != nil {
			t.Fatalf("conflict body is not the envelope object: %s", raw.Error)
		}
		if env.Code != "conflict" || env.JobID != second.ID {
			t.Errorf("conflict envelope %+v, want code=conflict job_id=%s", env, second.ID)
		}
	}
	testutil.WaitForJob(t, ts.URL, second.ID)
}
