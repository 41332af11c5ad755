package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/client"
	"repro/internal/experiment"
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
	for _, tc := range []struct {
		kind   string
		submit func(t *testing.T, base string) (id string)
		cells  int
	}{
		{"batch", func(t *testing.T, base string) string {
			return submitAndWait(t, base, testutil.MiniSpec("vectoradd", 31))
		}, 1},
		{"experiment", func(t *testing.T, base string) string { return runExperiment(t, base, miniExperimentSpec()) }, 2},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			dir := t.TempDir()
			gen1 := bootPersistent(t, dir)
			id := tc.submit(t, gen1.ts.URL)
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
			// (A restored experiment lists no cells — replay has only the
			// spec to go on, and compiling is resume's job — so its cell
			// count is checked on batches.)
			if status.State != "done" || (tc.kind == "batch" && status.Done != tc.cells) {
				t.Fatalf("status after restart: %+v", status)
			}
			if runs := gen2.sched.Stats().Runs; runs != 0 {
				t.Fatalf("restoring finished jobs executed %d cells (gen1 ran %d)", runs, runs1)
			}
		})
	}
}

// runExperiment streams spec through POST /v1/experiments to its result
// and returns the job id.
func runExperiment(t *testing.T, base string, spec experiment.Spec) string {
	t.Helper()
	var id string
	if _, err := (&client.Client{Base: base}).RunExperiment(context.Background(), spec, func(ev client.Event) {
		if ev.Event == "job" {
			id = ev.ID
		}
	}); err != nil {
		t.Fatal(err)
	}
	return id
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
		State string           `json:"state"`
		Cells []api.CellStatus `json:"cells"`
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

// TestRestartResumesUnfinishedExperiment is the same crash for the kind
// of job the fleet's traffic actually is: the journal holds an
// experiment's submit record and one settled cell, no finish. The job
// resumes detached (its stream died with the process), re-resolves the
// settled cell from the warm store without injecting, runs the other,
// and lands a result byte-identical to an uninterrupted run's.
func TestRestartResumesUnfinishedExperiment(t *testing.T) {
	spec := miniExperimentSpec()
	fresh := bootPersistent(t, t.TempDir())
	freshID := runExperiment(t, fresh.ts.URL, spec)
	// The body is {"id":…,"result":…}; only the id may differ.
	want := strings.Replace(string(rawResult(t, fresh.ts.URL, freshID)), freshID, "exp-000077", 1)
	fresh.stop()

	dir := t.TempDir()
	gen1 := bootPersistent(t, dir)
	// Settle the grid's first cell alone: cell seeds derive from the spec
	// seed and the cell's own coordinates, so the one-benchmark spec's
	// cell is the two-benchmark spec's cell 0.
	half := spec
	half.Benchmarks = spec.Benchmarks[:1]
	runExperiment(t, gen1.ts.URL, half)
	body, _ := json.Marshal(spec)
	work, err := compileExperiment(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	// Forge the crash, in the file only — the dying process's table is
	// gone with it.
	for _, rec := range []journalRecord{
		{Event: "submit", Job: "exp-000077", Kind: "experiment", Spec: work.def.Spec},
		{Event: "cell", Job: "exp-000077", Index: 0, State: "done", Injections: 20},
	} {
		if err := gen1.js.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	gen1.stop()

	gen2 := bootPersistent(t, dir)
	if gen2.rec.Restored != 2 || gen2.rec.Resumed != 1 {
		t.Fatalf("recovery stats %+v, want 2 restored / 1 resumed", gen2.rec)
	}
	testutil.WaitForJob(t, gen2.ts.URL, "exp-000077")
	if got := rawResult(t, gen2.ts.URL, "exp-000077"); string(got) != want {
		t.Fatalf("resumed experiment's result differs from an uninterrupted run's:\nclean:   %s\nresumed: %s", want, got)
	}
	var status struct {
		Cells []api.CellStatus `json:"cells"`
	}
	testutil.GetJSON(t, gen2.ts.URL, "/v1/jobs/exp-000077", &status)
	if len(status.Cells) != 2 || !status.Cells[0].Cached || status.Cells[1].Cached || status.Cells[0].Injections != 20 {
		t.Fatalf("resumed experiment's cells: %+v, want cell 0 a cache hit and cell 1 a run", status.Cells)
	}
	if st := gen2.sched.Stats(); st.Hits != 1 || st.Runs != 1 {
		t.Fatalf("scheduler stats %+v, want exactly 1 hit (journaled cell) and 1 run", st)
	}
}

// TestRestartResumesJobWithRetiredInterval: a batch journaled before the
// checkpoint interval was retired carries "policy":{"checkpoint":
// {"interval":N}}. A batch policy decodes leniently, so the field drops:
// the job resumes under the golden run's own ladder, its settled cell is
// a cache hit under the same key and the other one runs.
func TestRestartResumesJobWithRetiredInterval(t *testing.T) {
	dir := t.TempDir()
	gen1 := bootPersistent(t, dir)
	warm := testutil.MiniSpec("vectoradd", 43)
	submitAndWait(t, gen1.ts.URL, warm)
	cold := testutil.MiniSpec("transpose", 44)
	cells, err := json.Marshal([]campaign.CellSpec{warm, cold})
	if err != nil {
		t.Fatal(err)
	}
	// The submit record byte for byte as an older build wrote it: journalRecord
	// can no longer express the interval.
	legacy := `{"event":"submit","job":"job-000077","kind":"batch","cells":` + string(cells) + `,"policy":{"checkpoint":{"interval":2048}}}`
	if err := gen1.js.j.Append([]byte(legacy)); err != nil {
		t.Fatal(err)
	}
	gen1.stop()

	gen2 := bootPersistent(t, dir)
	if gen2.rec.Restored != 2 || gen2.rec.Resumed != 1 {
		t.Fatalf("recovery stats %+v, want 2 restored / 1 resumed", gen2.rec)
	}
	testutil.WaitForJob(t, gen2.ts.URL, "job-000077")
	var status struct {
		State string           `json:"state"`
		Cells []api.CellStatus `json:"cells"`
	}
	testutil.GetJSON(t, gen2.ts.URL, "/v1/jobs/job-000077", &status)
	if status.State != "done" || len(status.Cells) != 2 {
		t.Fatalf("resumed job %+v, want done with 2 cells", status)
	}
	for i, want := range []campaign.CellSpec{warm, cold} {
		if got := status.Cells[i].Spec.Key(); got != want.Key() {
			t.Fatalf("cell %d resumed under key %s, submitted as %s", i, got, want.Key())
		}
	}
	if !status.Cells[0].Cached || status.Cells[1].Cached {
		t.Fatalf("resumed cells %+v, want the warm one a cache hit and the cold one a run", status.Cells)
	}
	if st := gen2.sched.Stats(); st.Hits != 1 || st.Runs != 1 {
		t.Fatalf("scheduler stats %+v, want exactly 1 hit and 1 run", st)
	}
}

// TestRestartFailsExperimentWithRetiredInterval: an experiment spec parses
// strictly, so an unfinished experiment journaled with
// policy.checkpoint.interval no longer compiles. It comes back failed with
// an error naming the field, never dropped and never run without it, and
// the cell it had settled stays in the store.
func TestRestartFailsExperimentWithRetiredInterval(t *testing.T) {
	spec := miniExperimentSpec()
	dir := t.TempDir()
	gen1 := bootPersistent(t, dir)
	half := spec
	half.Benchmarks = spec.Benchmarks[:1]
	runExperiment(t, gen1.ts.URL, half)
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	doc["policy"] = map[string]any{"checkpoint": map[string]any{"interval": 4096}}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []journalRecord{
		{Event: "submit", Job: "exp-000077", Kind: "experiment", Spec: raw},
		{Event: "cell", Job: "exp-000077", Index: 0, State: "done", Injections: 20},
	} {
		if err := gen1.js.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	gen1.stop()

	gen2 := bootPersistent(t, dir)
	if gen2.rec.Restored != 2 || gen2.rec.Resumed != 0 {
		t.Fatalf("recovery stats %+v, want 2 restored / 0 resumed", gen2.rec)
	}
	var status struct {
		State string `json:"state"`
		Error string `json:"error"`
	}
	testutil.GetJSON(t, gen2.ts.URL, "/v1/jobs/exp-000077", &status)
	if status.State != "failed" || !strings.HasPrefix(status.Error, "recovery: ") || !strings.Contains(status.Error, "interval") {
		t.Fatalf("exp-000077 is %+v, want failed with a recovery error naming interval", status)
	}
	runExperiment(t, gen2.ts.URL, half)
	if st := gen2.sched.Stats(); st.Hits != 1 || st.Runs != 0 {
		t.Fatalf("scheduler stats %+v, want the settled cell a store hit and no run", st)
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
		mixed       bool // every second job is an experiment
		wantKept    []string
	}{
		{"bound 2 keeps the newest 2", 2, 4, false, []string{"job-000003", "job-000004"}},
		{"bound above count keeps all", 8, 3, false, []string{"job-000001", "job-000002", "job-000003"}},
		{"batches and experiments share one order", 3, 5, true, []string{"job-000003", "exp-000004", "job-000005"}},
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
				if tc.mixed && i%2 == 1 {
					runExperiment(t, gen1.ts.URL, miniExperimentSpec())
					continue
				}
				submitAndWait(t, gen1.ts.URL, testutil.MiniSpec("vectoradd", 61))
			}
			gen1.stop()

			gen2 := bootPersistent(t, dir)
			gen2.srv.mu.Lock()
			gen2.srv.maxRetained = tc.maxRetained
			gen2.srv.mu.Unlock()
			var listing struct {
				Jobs []api.JobSummary `json:"jobs"`
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

// TestReadsNeverWaitOnJournalAppend holds the job journal's file mutex —
// what a slow fsync looks like to everyone else — while one job has a
// cell record to append and another job is being DELETEd, and requires
// every read to answer regardless: the table's mutex is never held
// across a journal append. It also pins the write-ahead order: while the
// cell record is stuck on its way to disk, status must not show the cell
// settled.
func TestReadsNeverWaitOnJournalAppend(t *testing.T) {
	js := mustOpenJobStore(t, filepath.Join(t.TempDir(), "jobs.jsonl"))
	defer js.Close()
	q := campaign.NewLeaseQueue(time.Minute)
	sched := campaign.New(campaign.Config{Executor: campaign.NewRemoteExecutor(q), Workers: 8})
	srv := NewServer(sched)
	srv.ServeWorkers(q)
	if _, err := srv.UseJobStore(js); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Two one-cell jobs; the test plays the worker, so it decides when
	// each cell settles.
	var stuck, other struct {
		ID string `json:"id"`
	}
	testutil.PostJSON(t, ts.URL, "/v1/jobs", map[string]any{"cells": []campaign.CellSpec{testutil.MiniSpec("vectoradd", 91)}}, &stuck, http.StatusAccepted)
	testutil.PostJSON(t, ts.URL, "/v1/jobs", map[string]any{"cells": []campaign.CellSpec{testutil.MiniSpec("vectoradd", 92)}}, &other, http.StatusAccepted)
	leases := map[uint64]campaign.Lease{} // by cell seed
	for deadline := time.Now().Add(30 * time.Second); len(leases) < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 2 cells surfaced as leases", len(leases))
		}
		for _, l := range leaseOnce(t, ts, "w1", 4, 100*time.Millisecond) {
			leases[l.Task.Spec.Seed] = l
		}
	}
	completeLease(t, ts, leases[92].ID, runRemoteCell(t, leases[92].Task), "", http.StatusOK)
	testutil.WaitForJob(t, ts.URL, other.ID)

	js.mu.Lock()
	var once sync.Once
	release := func() { once.Do(js.mu.Unlock) }
	defer release()
	// The stuck job's cell settles in the scheduler; its record now waits
	// for the file.
	completeLease(t, ts, leases[91].ID, runRemoteCell(t, leases[91].Task), "", http.StatusOK)
	for deadline := time.Now().Add(30 * time.Second); sched.Stats().Runs < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the stuck job's cell never executed")
		}
	}
	time.Sleep(50 * time.Millisecond) // let the record reach the append (only sharpens a failure)

	hc := &http.Client{Timeout: 5 * time.Second}
	get := func(path string, out any) {
		t.Helper()
		resp, err := hc.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s while a journal append is in progress: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	var listing struct {
		Jobs []api.JobSummary `json:"jobs"`
	}
	get("/v1/jobs", &listing)
	if len(listing.Jobs) != 2 {
		t.Fatalf("listing %+v, want both jobs", listing.Jobs)
	}
	var status struct {
		State string           `json:"state"`
		Cells []api.CellStatus `json:"cells"`
	}
	get("/v1/jobs/"+stuck.ID, &status)
	if status.State != "running" || status.Cells[0].State != "pending" {
		t.Fatalf("status shows a transition the journal does not hold yet: %+v", status)
	}
	get("/v1/jobs/"+other.ID, &status)
	get("/v1/jobs/"+other.ID+"/result", &struct{}{})

	// DELETE of the finished job removes it from the table at once and
	// queues behind the file for its delete record — without taking the
	// reads down with it.
	deleted := make(chan int, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+other.ID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			deleted <- 0
			return
		}
		resp.Body.Close()
		deleted <- resp.StatusCode
	}()
	for deadline := time.Now().Add(5 * time.Second); len(listing.Jobs) != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("listing %+v, want the deleted job gone while its delete record waits", listing.Jobs)
		}
		get("/v1/jobs", &listing)
	}

	release()
	testutil.WaitForJob(t, ts.URL, stuck.ID)
	if code := <-deleted; code != http.StatusOK {
		t.Fatalf("DELETE answered %d once the journal let it through", code)
	}
}

// TestRacingRemovalsJournalOneDeleteEach: submissions evicting past a
// small retention bound race explicit DELETEs and listings. Every job
// that left the table must have exactly one delete record in the journal
// — removal picks its victim under the table's lock and journals after
// releasing it, so no two requests can journal the same removal — and a
// restart must come back to exactly the set the live server retained.
func TestRacingRemovalsJournalOneDeleteEach(t *testing.T) {
	dir := t.TempDir()
	gen1 := bootPersistent(t, dir)
	gen1.srv.mu.Lock()
	gen1.srv.maxRetained = 3
	gen1.srv.mu.Unlock()
	warm := testutil.MiniSpec("vectoradd", 95)
	submitAndWait(t, gen1.ts.URL, warm) // later jobs are cache hits

	const clients, each = 4, 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				var submitted struct {
					ID string `json:"id"`
				}
				buf, _ := json.Marshal(map[string]any{"cells": []campaign.CellSpec{warm}})
				resp, err := http.Post(gen1.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(buf))
				if err != nil {
					t.Error(err)
					return
				}
				json.NewDecoder(resp.Body).Decode(&submitted)
				resp.Body.Close()
				// DELETE whatever state it is in (cancel, delete or already
				// evicted) and list, all racing the other clients' evictions.
				req, _ := http.NewRequest(http.MethodDelete, gen1.ts.URL+"/v1/jobs/"+submitted.ID, nil)
				if resp, err := http.DefaultClient.Do(req); err == nil {
					resp.Body.Close()
				}
				if resp, err := http.Get(gen1.ts.URL + "/v1/jobs"); err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	if err := gen1.srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	var retained []string
	for _, j := range gen1.srv.table.list() {
		retained = append(retained, j.id)
	}
	gen1.stop()

	data, err := os.ReadFile(filepath.Join(dir, "jobs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	submits, deletes := map[string]int{}, map[string]int{}
	for _, line := range splitLines(data) {
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		switch rec.Event {
		case "submit":
			submits[rec.Job]++
		case "delete":
			deletes[rec.Job]++
		}
	}
	if len(submits) != 1+clients*each {
		t.Fatalf("journal holds %d submitted jobs, want %d", len(submits), 1+clients*each)
	}
	kept := map[string]bool{}
	for _, id := range retained {
		kept[id] = true
	}
	for id := range submits {
		if want := map[bool]int{true: 0, false: 1}[kept[id]]; deletes[id] != want {
			t.Errorf("job %s (retained: %v) has %d delete records, want %d", id, kept[id], deletes[id], want)
		}
	}

	gen2 := bootPersistent(t, dir)
	var after []string
	for _, j := range gen2.srv.table.list() {
		after = append(after, j.id)
	}
	// (As sets: two submissions racing each other may enter the table in
	// the opposite order of their submit records.)
	sort.Strings(after)
	sort.Strings(retained)
	if !reflect.DeepEqual(after, retained) {
		t.Fatalf("restart retained %v, the live server had %v", after, retained)
	}
}

// TestRestartFailsUnrecoverableJob: a journaled submission that no longer
// compiles is not resumed, not dropped and not guessed at — it finishes
// failed with the recovery error, and that finish is journaled, so the
// next restart finds an ordinary finished job.
func TestRestartFailsUnrecoverableJob(t *testing.T) {
	dir := t.TempDir()
	gen1 := bootPersistent(t, dir)
	gone := testutil.MiniSpec("vectoradd", 1)
	gone.Chip = "a chip a later version renamed"
	for _, rec := range []journalRecord{
		{Event: "submit", Job: "job-000005", Kind: "batch", Cells: []campaign.CellSpec{gone}},
		{Event: "submit", Job: "exp-000006", Kind: "experiment", Spec: json.RawMessage(`{"version":99}`)},
	} {
		if err := gen1.js.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	gen1.stop()

	for gen, wantRecords := range []int{4, 4} {
		p := bootPersistent(t, dir)
		if p.rec.Restored != 2 || p.rec.Resumed != 0 {
			t.Fatalf("generation %d: recovery stats %+v, want 2 restored / 0 resumed", gen+2, p.rec)
		}
		for _, id := range []string{"job-000005", "exp-000006"} {
			var status struct {
				State string `json:"state"`
				Error string `json:"error"`
			}
			testutil.GetJSON(t, p.ts.URL, "/v1/jobs/"+id, &status)
			if status.State != "failed" || !strings.HasPrefix(status.Error, "recovery: ") {
				t.Fatalf("generation %d: %s is %+v, want failed with the recovery error", gen+2, id, status)
			}
		}
		if got := p.js.Records(); got != wantRecords {
			t.Fatalf("generation %d: journal holds %d records, want %d (two submits, two finishes, written once)", gen+2, got, wantRecords)
		}
		p.stop()
	}
}
