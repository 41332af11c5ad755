package service

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/testutil"
)

func newTestServer(t *testing.T) (*Server, *campaign.Scheduler) {
	t.Helper()
	sched := campaign.New(campaign.Config{})
	return NewServer(sched), sched
}

func TestJobLifecycle(t *testing.T) {
	store := campaign.NewMemoryStore(0)
	sched := campaign.New(campaign.Config{Store: store})
	srv := NewServer(sched)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var submitted struct {
		ID    string `json:"id"`
		Total int    `json:"total"`
	}
	req := map[string]any{"cells": []campaign.CellSpec{
		testutil.MiniSpec("vectoradd", 1),
		testutil.MiniSpec("transpose", 1),
		testutil.MiniSpec("vectoradd", 1), // duplicate: must dedup, not re-run
	}}
	testutil.PostJSON(t, ts.URL, "/v1/jobs", req, &submitted, http.StatusAccepted)
	if submitted.ID == "" || submitted.Total != 3 {
		t.Fatalf("submit response %+v", submitted)
	}

	var status struct {
		State string           `json:"state"`
		Done  int              `json:"done"`
		Total int              `json:"total"`
		Cells []api.CellStatus `json:"cells"`
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if testutil.GetJSON(t, ts.URL, "/v1/jobs/"+submitted.ID, &status) != http.StatusOK {
			t.Fatal("status not OK")
		}
		if status.State != "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if status.State != "done" || status.Done != 3 {
		t.Fatalf("final status %+v", status)
	}
	for i, c := range status.Cells {
		if c.State != "done" {
			t.Fatalf("cell %d: %+v", i, c)
		}
	}

	var result struct {
		Cells []api.ResultRow `json:"cells"`
	}
	if testutil.GetJSON(t, ts.URL, "/v1/jobs/"+submitted.ID+"/result", &result) != http.StatusOK {
		t.Fatal("result not OK")
	}
	if len(result.Cells) != 3 {
		t.Fatalf("%d result rows", len(result.Cells))
	}
	for i, row := range result.Cells {
		if row.Result == nil || row.Result.Injections != 20 {
			t.Fatalf("row %d: %+v", i, row.Result)
		}
	}
	if result.Cells[0].Result.Outcomes != result.Cells[2].Result.Outcomes {
		t.Fatal("duplicate cells disagree")
	}
	if runs := sched.Stats().Runs; runs != 2 {
		t.Fatalf("3 cells (1 duplicate) caused %d executions, want 2", runs)
	}

	if cells := store.Len(); cells != 2 {
		t.Fatalf("store holds %d cells, want 2", cells)
	}
}

func TestSubmitValidation(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	testutil.PostJSON(t, ts.URL, "/v1/jobs", map[string]any{"cells": []campaign.CellSpec{}}, nil, http.StatusBadRequest)
	testutil.PostJSON(t, ts.URL, "/v1/jobs",
		map[string]any{"cells": []campaign.CellSpec{{Chip: "no such chip", Benchmark: "vectoradd"}}},
		nil, http.StatusBadRequest)
	if testutil.GetJSON(t, ts.URL, "/v1/jobs/job-999999", nil) != http.StatusNotFound {
		t.Fatal("unknown job not 404")
	}
}

func TestResultConflictWhileRunning(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var submitted struct {
		ID string `json:"id"`
	}
	// A batch big enough to still be running when we poll the result.
	var cells []campaign.CellSpec
	for i := uint64(0); i < 6; i++ {
		s := testutil.MiniSpec("matrixMul", 100+i)
		s.Injections = 150
		cells = append(cells, s)
	}
	testutil.PostJSON(t, ts.URL, "/v1/jobs", map[string]any{"cells": cells}, &submitted, http.StatusAccepted)
	code := testutil.GetJSON(t, ts.URL, "/v1/jobs/"+submitted.ID+"/result", nil)
	if code != http.StatusConflict && code != http.StatusOK {
		t.Fatalf("result while running: status %d", code)
	}
	// Cancel to avoid burning the rest of the batch.
	reqCancel, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+submitted.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(reqCancel)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
}
