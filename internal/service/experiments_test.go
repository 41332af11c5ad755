package service

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/experiment"
	"repro/internal/gpu"
	"repro/internal/protect"
	"repro/internal/testutil"
)

func miniExperimentSpec() experiment.Spec {
	return experiment.Spec{
		Name:       "mini-exp",
		Chips:      []string{"Mini NVIDIA"},
		Benchmarks: []string{"vectoradd", "transpose"},
		Structures: []gpu.Structure{gpu.RegisterFile},
		Injections: 20,
		Seed:       3,
	}
}

// TestExperimentEndpoint drives POST /v1/experiments through the shared
// Go client: streamed job + cell + result events, job-store backing for
// status and late result retrieval, and strict spec rejection.
func TestExperimentEndpoint(t *testing.T) {
	srv, sched := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := &client.Client{Base: ts.URL}
	ctx := context.Background()

	var events []client.Event
	res, err := cl.RunExperiment(ctx, miniExperimentSpec(), func(ev client.Event) {
		events = append(events, ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 { // job + 2 cells + result
		t.Fatalf("events: %d (%+v), want 4", len(events), events)
	}
	if events[0].Event != "job" || !strings.HasPrefix(events[0].ID, "exp-") || events[0].Total != 2 {
		t.Fatalf("first event %+v", events[0])
	}
	for _, ev := range events[1:3] {
		if ev.Event != "cell" || ev.Structure != "register-file" || ev.Total != 2 {
			t.Fatalf("cell event %+v", ev)
		}
	}
	last := events[len(events)-1]
	if last.Event != "result" || last.Name != "mini-exp" {
		t.Fatalf("final event %+v", last)
	}
	if len(res.Tables) != 1 || len(res.Tables[0].Cells) != 2 {
		t.Fatalf("result shape: %+v", res)
	}
	if res.Spec.Version != experiment.Version || res.Spec.Injections != 20 {
		t.Fatalf("result spec not normalized: %+v", res.Spec)
	}

	// Job-store backing: status and the result survive the stream.
	jobID := events[0].ID
	st, err := cl.Status(ctx, jobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != "experiment" || st.State != "done" || st.Done != 2 || st.Total != 2 {
		t.Fatalf("status %+v", st)
	}
	stored, err := cl.ExperimentResult(ctx, jobID)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(res)
	b, _ := json.Marshal(stored)
	if string(a) != string(b) {
		t.Fatalf("stored result differs from streamed result:\n%s\nvs\n%s", a, b)
	}

	// The run went through the shared scheduler: a second identical
	// spec is served entirely from cache.
	runs := sched.Stats().Runs
	if _, err := cl.RunExperiment(ctx, miniExperimentSpec(), nil); err != nil {
		t.Fatal(err)
	}
	if got := sched.Stats().Runs; got != runs {
		t.Fatalf("warm rerun executed %d campaigns", got-runs)
	}
}

func TestExperimentEndpointRejects(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := &client.Client{Base: ts.URL}
	ctx := context.Background()

	// Unknown chip.
	bad := miniExperimentSpec()
	bad.Chips = []string{"GeForce 9999"}
	if _, err := cl.RunExperiment(ctx, bad, nil); api.StatusOf(err) != 400 {
		t.Fatalf("bad chip: err %v, want 400", err)
	}

	// Unknown field (strict decode): raw POST, since the typed client
	// cannot produce one.
	resp, err := ts.Client().Post(ts.URL+"/v1/experiments", "application/json",
		strings.NewReader(`{"version":1,"injctions":5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("unknown field: status %d, want 400", resp.StatusCode)
	}

	// Unsupported version.
	v2 := miniExperimentSpec()
	v2.Version = 99
	if _, err := cl.RunExperiment(ctx, v2, nil); api.StatusOf(err) != 400 {
		t.Fatalf("v99 spec: err %v, want 400", err)
	}
}

// TestExperimentProtectionOverHTTP runs the redesign's flagship new
// scenario — a protection what-if sweep — end to end over the wire.
func TestExperimentProtectionOverHTTP(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := &client.Client{Base: ts.URL}

	spec := experiment.Spec{
		Name:       "protection-sweep",
		Chips:      []string{"Mini NVIDIA"},
		Benchmarks: []string{"matrixMul"},
		Structures: []gpu.Structure{gpu.RegisterFile, gpu.LocalMemory},
		Estimator:  experiment.EstimatorFI,
		Injections: 40,
		Seed:       31,
		Metrics: experiment.Metrics{
			EPF: true,
			Protection: []experiment.Protection{
				{Name: "unprotected"},
				{Name: "secded-all", Schemes: []protect.Config{
					{Structure: gpu.RegisterFile, Scheme: protect.SECDED},
					{Structure: gpu.LocalMemory, Scheme: protect.SECDED},
				}},
			},
		},
	}
	res, err := cl.RunExperiment(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.EPF == nil || len(res.Protection) != 2 {
		t.Fatalf("result: EPF %v, %d protection rows", res.EPF != nil, len(res.Protection))
	}
	for _, row := range res.Protection {
		if row.Config == "secded-all" && (row.SDCFIT != 0 || row.DUEFIT != 0) {
			t.Fatalf("secded-all left failures: %+v", row)
		}
	}
}

// TestCanceledACEExperimentStops: DELETE on a running experiment answers
// "canceling", and the job must then actually stop — also an ACE-only
// one, whose cells are golden-only campaigns, one full simulation each
// (an ACE phase outside the scheduler once ran the whole grid out and
// landed "done" anyway). A cell the cancel cuts off settles as failed.
func TestCanceledACEExperimentStops(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := &client.Client{Base: ts.URL}
	ctx := context.Background()

	// The four evaluated chips × every benchmark: 40 golden runs, most of
	// a second if nothing stops them — against a DELETE that takes under
	// a millisecond and is sent before the first one can finish.
	spec := experiment.Spec{Name: "ace-grid", Estimator: experiment.EstimatorACE}
	var id, deleteState string
	_, err := cl.RunExperiment(ctx, spec, func(ev client.Event) {
		if ev.Event != "job" {
			return
		}
		id = ev.ID
		var body struct {
			State string `json:"state"`
		}
		testutil.DeleteJSON(t, ts.URL, "/v1/jobs/"+id, &body)
		deleteState = body.State
	})
	if deleteState != "canceling" {
		t.Fatalf("DELETE of the running experiment answered %q, want canceling", deleteState)
	}
	if err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("stream of the canceled experiment ended with %v, want a context-canceled error event", err)
	}
	st, err := cl.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	measured := 0
	for _, c := range st.Cells {
		if c.State == "done" {
			measured++
		}
	}
	if st.State != "canceled" || measured == st.Total {
		t.Fatalf("canceled experiment settled %q with %d/%d cells measured", st.State, measured, st.Total)
	}
}

// TestExperimentStatusReportsInjections: an experiment job's cells report
// their realized sample size like a batch job's — under an adaptive
// policy that is the number the cell stopped at, not the spec's cap.
func TestExperimentStatusReportsInjections(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := &client.Client{Base: ts.URL}
	ctx := context.Background()

	spec := miniExperimentSpec()
	spec.Estimator = experiment.EstimatorFI
	spec.Injections = 2000
	spec.Policy.Margin = 0.2
	var id string
	res, err := cl.RunExperiment(ctx, spec, func(ev client.Event) {
		if ev.Event == "job" {
			id = ev.ID
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range st.Cells {
		// Plan order is benchmark-major; this grid has one chip and one
		// structure, so cell i is benchmark i.
		want := res.Tables[0].Cells[i][0].Injections
		if c.Injections != want || want <= 0 || want >= spec.Injections {
			t.Fatalf("cell %d reports %d injections; the result has %d (cap %d)", i, c.Injections, want, spec.Injections)
		}
	}
}
