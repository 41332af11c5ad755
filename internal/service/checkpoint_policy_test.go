package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/testutil"
)

// TestJobPolicyCheckpoint drives the wire form of the checkpoint knob:
// the same cell submitted with checkpointing forced off and with a fixed
// interval must complete either way and land on the same cell key (the
// knob stays out of identity), with the second submission answered from
// the store without re-running.
func TestJobPolicyCheckpoint(t *testing.T) {
	srv, sched := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spec := testutil.MiniSpec("vectoradd", 5)
	spec.Injections = 40

	submit := func(policy map[string]any) []api.CellStatus {
		var submitted struct {
			ID string `json:"id"`
		}
		req := map[string]any{"cells": []campaign.CellSpec{spec}}
		if policy != nil {
			req["policy"] = policy
		}
		testutil.PostJSON(t, ts.URL, "/v1/jobs", req, &submitted, http.StatusAccepted)
		status := awaitJob(t, ts, submitted.ID)
		if status.State != "done" {
			t.Fatalf("final status %+v", status)
		}
		return status.Cells
	}

	off := submit(map[string]any{"checkpoint": map[string]any{"off": true}})
	interval := submit(map[string]any{"checkpoint": map[string]any{"interval": 2048}})
	if off[0].Spec.Key() != interval[0].Spec.Key() {
		t.Fatalf("checkpoint knob changed the cell key: %s vs %s", off[0].Spec.Key(), interval[0].Spec.Key())
	}
	st := sched.Stats()
	if st.Runs != 1 {
		t.Fatalf("expected one execution and one store hit across policies, got %d runs", st.Runs)
	}
	if st.Hits == 0 {
		t.Fatal("second submission was not served from the store")
	}
}

// TestJobPolicyCheckpointValidation rejects a negative interval.
func TestJobPolicyCheckpointValidation(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spec := testutil.MiniSpec("vectoradd", 5)
	var errBody struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	testutil.PostJSON(t, ts.URL, "/v1/jobs", map[string]any{
		"cells":  []campaign.CellSpec{spec},
		"policy": map[string]any{"checkpoint": map[string]any{"interval": -5}},
	}, &errBody, http.StatusBadRequest)
	if errBody.Error.Code != "bad_request" || !strings.Contains(errBody.Error.Message, "checkpoint interval") {
		t.Fatalf("error envelope %+v", errBody)
	}
}
