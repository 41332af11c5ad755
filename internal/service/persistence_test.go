package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/testutil"
)

// persistentServer is one "process generation" of a journaled fiserver:
// a scheduler over a shared on-disk campaign store plus a job journal.
type persistentServer struct {
	srv   *Server
	sched *campaign.Scheduler
	ts    *httptest.Server
	store *campaign.DiskStore
	js    *JobStore
	rec   RecoveryStats
}

// bootPersistent opens (or reopens) the campaign store and job journal
// in dir and boots a server over them, running recovery — the in-process
// equivalent of restarting fiserver with -store and -job-store.
func bootPersistent(t *testing.T, dir string) *persistentServer {
	t.Helper()
	store, err := campaign.OpenStore(filepath.Join(dir, "cells.jsonl"), campaign.FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	js, err := OpenJobStore(filepath.Join(dir, "jobs.jsonl"))
	if err != nil {
		store.Close()
		t.Fatal(err)
	}
	sched := campaign.New(campaign.Config{Store: store})
	srv := NewServer(sched)
	rec, err := srv.UseJobStore(js)
	if err != nil {
		t.Fatal(err)
	}
	p := &persistentServer{srv: srv, sched: sched, ts: httptest.NewServer(srv), store: store, js: js, rec: rec}
	t.Cleanup(p.stop)
	return p
}

// stop tears the generation down (idempotent), closing both files so the
// next generation can reopen them.
func (p *persistentServer) stop() {
	if p.ts == nil {
		return
	}
	p.ts.Close()
	p.js.Close()
	p.store.Close()
	p.ts = nil
}

// submitAndWait submits a one-cell batch and waits for it, returning the
// job id.
func submitAndWait(t *testing.T, base string, spec campaign.CellSpec) string {
	t.Helper()
	var submitted struct {
		ID string `json:"id"`
	}
	testutil.PostJSON(t, base, "/v1/jobs", map[string]any{"cells": []campaign.CellSpec{spec}}, &submitted, http.StatusAccepted)
	testutil.WaitForJob(t, base, submitted.ID)
	return submitted.ID
}

// rawResult fetches /v1/jobs/{id}/result as raw bytes for byte-identity
// comparisons.
func rawResult(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestDeleteJobSemantics pins the state-dependent DELETE /v1/jobs/{id}
// contract, including the finished-job path that used to race eviction.
func TestDeleteJobSemantics(t *testing.T) {
	cases := []struct {
		name string
		// prepare boots a server and returns its base URL plus a job id
		// in the state under test.
		prepare func(t *testing.T) (base, id string)
		// first DELETE: expected status and body state.
		wantCode  int
		wantState string
		// whether a follow-up DELETE (after the job settles) must first
		// answer "deleted" and only then 404.
		deletable bool
	}{
		{
			name: "unknown job",
			prepare: func(t *testing.T) (string, string) {
				srv, _ := newTestServer(t)
				ts := httptest.NewServer(srv)
				t.Cleanup(ts.Close)
				return ts.URL, "job-999999"
			},
			wantCode: http.StatusNotFound,
		},
		{
			name: "finished job",
			prepare: func(t *testing.T) (string, string) {
				srv, _ := newTestServer(t)
				ts := httptest.NewServer(srv)
				t.Cleanup(ts.Close)
				return ts.URL, submitAndWait(t, ts.URL, testutil.MiniSpec("vectoradd", 21))
			},
			wantCode:  http.StatusOK,
			wantState: "deleted",
		},
		{
			name: "running job",
			prepare: func(t *testing.T) (string, string) {
				// A remote-executor server with no workers attached: the
				// job blocks on the lease queue until canceled, so it is
				// deterministically running at the DELETE.
				q := campaign.NewLeaseQueue(time.Second)
				sched := campaign.New(campaign.Config{Executor: campaign.NewRemoteExecutor(q), Workers: 8})
				srv := NewServer(sched)
				srv.ServeWorkers(q)
				ts := httptest.NewServer(srv)
				t.Cleanup(ts.Close)
				var submitted struct {
					ID string `json:"id"`
				}
				testutil.PostJSON(t, ts.URL, "/v1/jobs",
					map[string]any{"cells": []campaign.CellSpec{testutil.MiniSpec("vectoradd", 22)}},
					&submitted, http.StatusAccepted)
				return ts.URL, submitted.ID
			},
			wantCode:  http.StatusOK,
			wantState: "canceling",
			deletable: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base, id := tc.prepare(t)

			var body struct {
				State string `json:"state"`
			}
			if code := testutil.DeleteJSON(t, base, "/v1/jobs/"+id, &body); code != tc.wantCode {
				t.Fatalf("first DELETE: status %d, want %d", code, tc.wantCode)
			}
			if tc.wantState != "" && body.State != tc.wantState {
				t.Fatalf("first DELETE: state %q, want %q", body.State, tc.wantState)
			}
			if tc.wantCode == http.StatusNotFound {
				return
			}
			if tc.deletable {
				// A canceled job settles as finished-and-retained: the next
				// DELETE removes it.
				if state := testutil.WaitForJobState(t, base, id); state != "canceled" {
					t.Fatalf("after cancel: state %q, want canceled", state)
				}
				var del struct {
					State string `json:"state"`
				}
				if code := testutil.DeleteJSON(t, base, "/v1/jobs/"+id, &del); code != http.StatusOK || del.State != "deleted" {
					t.Fatalf("DELETE of canceled job: %d %q", code, del.State)
				}
			}
			// Deleted means gone: status and repeat deletes both 404.
			if code := testutil.GetJSON(t, base, "/v1/jobs/"+id, nil); code != http.StatusNotFound {
				t.Fatalf("GET after delete: status %d, want 404", code)
			}
			if code := testutil.DeleteJSON(t, base, "/v1/jobs/"+id, nil); code != http.StatusNotFound {
				t.Fatalf("second DELETE: status %d, want 404", code)
			}
		})
	}
}

// TestRestartRestoresFinishedJobs is the warm half of the restart story:
// finished jobs come back byte-identical from the journal alone, with
// zero scheduler activity.
func TestRestartRestoresFinishedJobs(t *testing.T) {
	dir := t.TempDir()
	gen1 := bootPersistent(t, dir)
	id := submitAndWait(t, gen1.ts.URL, testutil.MiniSpec("vectoradd", 31))
	want := rawResult(t, gen1.ts.URL, id)
	runs1 := gen1.sched.Stats().Runs
	gen1.stop()

	gen2 := bootPersistent(t, dir)
	if gen2.rec.Restored != 1 || gen2.rec.Resumed != 0 {
		t.Fatalf("recovery stats %+v, want 1 restored / 0 resumed", gen2.rec)
	}
	got := rawResult(t, gen2.ts.URL, id)
	if string(got) != string(want) {
		t.Fatalf("restored result differs:\nbefore: %s\nafter:  %s", want, got)
	}
	var status struct {
		State string `json:"state"`
		Done  int    `json:"done"`
	}
	if code := testutil.GetJSON(t, gen2.ts.URL, "/v1/jobs/"+id, &status); code != http.StatusOK {
		t.Fatalf("status after restart: %d", code)
	}
	if status.State != "done" || status.Done != 1 {
		t.Fatalf("status after restart: %+v", status)
	}
	if runs := gen2.sched.Stats().Runs; runs != 0 {
		t.Fatalf("restoring finished jobs executed %d cells (gen1 ran %d)", runs, runs1)
	}
}

// TestRestartResumesUnfinishedJob is the crash half: a journaled job
// with no finish record re-runs on boot; its already-completed cell is
// served from the warm campaign store (a cache hit, zero re-injections)
// and only the genuinely unfinished cell executes.
func TestRestartResumesUnfinishedJob(t *testing.T) {
	dir := t.TempDir()
	gen1 := bootPersistent(t, dir)
	// Complete one cell so its result is in the warm campaign store.
	warm := testutil.MiniSpec("vectoradd", 41)
	submitAndWait(t, gen1.ts.URL, warm)
	// Forge the crash: a submitted-but-never-finished job over the warm
	// cell plus a cold one, exactly what a kill -9 after the submit
	// record leaves behind.
	cold := testutil.MiniSpec("transpose", 42)
	if err := gen1.js.append(journalRecord{
		Event: "submit", Job: "job-000077", Kind: "batch",
		Cells: []campaign.CellSpec{warm, cold},
	}); err != nil {
		t.Fatal(err)
	}
	gen1.stop()

	gen2 := bootPersistent(t, dir)
	if gen2.rec.Restored != 2 || gen2.rec.Resumed != 1 {
		t.Fatalf("recovery stats %+v, want 2 restored / 1 resumed", gen2.rec)
	}
	testutil.WaitForJob(t, gen2.ts.URL, "job-000077")
	var status struct {
		State string      `json:"state"`
		Cells []cellState `json:"cells"`
	}
	testutil.GetJSON(t, gen2.ts.URL, "/v1/jobs/job-000077", &status)
	if !status.Cells[0].Cached {
		t.Fatalf("warm cell re-executed after restart: %+v", status.Cells[0])
	}
	if status.Cells[1].Cached {
		t.Fatalf("cold cell claims a cache hit: %+v", status.Cells[1])
	}
	st := gen2.sched.Stats()
	if st.Hits != 1 || st.Runs != 1 {
		t.Fatalf("scheduler stats %+v, want exactly 1 hit (warm cell) and 1 run (cold cell)", st)
	}
}

// TestJobIDSequenceAcrossRestart: ids minted after a restart continue
// past every journaled id — batches and experiments share the sequence,
// and deleted jobs still count.
func TestJobIDSequenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	gen1 := bootPersistent(t, dir)
	id1 := submitAndWait(t, gen1.ts.URL, testutil.MiniSpec("vectoradd", 51))
	if id1 != "job-000001" {
		t.Fatalf("first id %q", id1)
	}
	id2 := submitAndWait(t, gen1.ts.URL, testutil.MiniSpec("vectoradd", 52))
	// Delete the latest job: its id must still never be reused.
	if code := testutil.DeleteJSON(t, gen1.ts.URL, "/v1/jobs/"+id2, nil); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	gen1.stop()

	gen2 := bootPersistent(t, dir)
	id3 := submitAndWait(t, gen2.ts.URL, testutil.MiniSpec("vectoradd", 53))
	if id3 != "job-000003" {
		t.Fatalf("post-restart id %q, want job-000003 (sequence restored past deleted job-000002)", id3)
	}
}

// TestEvictionOrderingAcrossRestart: the retention bound evicts oldest
// finished jobs first, the journal mirrors each eviction, and a restart
// preserves both the retained set and its ordering.
func TestEvictionOrderingAcrossRestart(t *testing.T) {
	cases := []struct {
		name        string
		maxRetained int
		submit      int
		wantKept    []string
	}{
		{"bound 2 keeps the newest 2", 2, 4, []string{"job-000003", "job-000004"}},
		{"bound above count keeps all", 8, 3, []string{"job-000001", "job-000002", "job-000003"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			gen1 := bootPersistent(t, dir)
			gen1.srv.mu.Lock()
			gen1.srv.maxRetained = tc.maxRetained
			gen1.srv.mu.Unlock()
			for i := 0; i < tc.submit; i++ {
				// Same spec every time: later jobs are cache hits, fast.
				submitAndWait(t, gen1.ts.URL, testutil.MiniSpec("vectoradd", 61))
			}
			gen1.stop()

			gen2 := bootPersistent(t, dir)
			gen2.srv.mu.Lock()
			gen2.srv.maxRetained = tc.maxRetained
			gen2.srv.mu.Unlock()
			var listing struct {
				Jobs []jobSummary `json:"jobs"`
			}
			testutil.GetJSON(t, gen2.ts.URL, "/v1/jobs", &listing)
			if len(listing.Jobs) != len(tc.wantKept) {
				t.Fatalf("%d jobs retained after restart, want %d: %+v", len(listing.Jobs), len(tc.wantKept), listing.Jobs)
			}
			for i, want := range tc.wantKept {
				if listing.Jobs[i].ID != want {
					t.Fatalf("retained[%d] = %q, want %q (ordering must survive restart)", i, listing.Jobs[i].ID, want)
				}
				if listing.Jobs[i].State != "done" {
					t.Fatalf("retained[%d] state %q", i, listing.Jobs[i].State)
				}
			}
		})
	}
}
