// Package chaostest is the crash-injection proof of restart-proof job
// persistence: it builds the real fiserver binary, runs it as a
// subprocess over on-disk stores, SIGKILLs it at injected crash
// barriers (or from the outside, mid-campaign), restarts it against the
// same stores, and asserts that the recovered job's result is
// byte-identical to an uninterrupted run — with already-completed cells
// served from the warm campaign store, never re-injected. It also runs
// a two-server cluster with a fiworker fleet through the owner's SIGKILL
// (cluster_chaos_test.go), and checks that SIGTERM drains a clustered
// server like SIGINT, ending its epoch with a release record.
package chaostest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/client"
	"repro/internal/service"
	"repro/internal/testutil"
)

// fiserverBin and fiworkerBin are the binaries TestMain builds once for
// every test.
var fiserverBin, fiworkerBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "chaostest")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	fiserverBin = filepath.Join(dir, "fiserver")
	fiworkerBin = filepath.Join(dir, "fiworker")
	for bin, pkg := range map[string]string{fiserverBin: "repro/cmd/fiserver", fiworkerBin: "repro/cmd/fiworker"} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "chaostest: building %s: %v\n", pkg, err)
			os.Exit(1)
		}
	}
	os.Exit(m.Run())
}

// proc is one fiserver subprocess generation over a data directory.
type proc struct {
	cmd  *exec.Cmd
	base string // http://host:port once the listener is up

	mu       sync.Mutex
	lines    []string // every stdout line, for diagnostics
	restored int      // parsed from the "job store ..." boot line
	resumed  int

	exited chan error // receives cmd.Wait exactly once
}

var bootLine = regexp.MustCompile(`^job store .*: (\d+) jobs restored, (\d+) resumed$`)

// startServer launches fiserver over dir's stores and waits for its
// listener. crash (a service.Crash* constant) arms a self-SIGKILL
// barrier via FISERVER_CRASH; empty runs a healthy server. extra flags
// (cluster mode, api keys, remote workers) append after the defaults.
func startServer(t *testing.T, dir, crash string, extra ...string) *proc {
	t.Helper()
	args := []string{
		"-addr", "127.0.0.1:0",
		"-store", filepath.Join(dir, "cells.jsonl"),
		"-job-store", filepath.Join(dir, "jobs.jsonl"),
		"-drain-timeout", "2s",
	}
	args = append(args, extra...)
	cmd := exec.Command(fiserverBin, args...)
	cmd.Env = os.Environ()
	if crash != "" {
		cmd.Env = append(cmd.Env, "FISERVER_CRASH="+crash)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &proc{cmd: cmd, exited: make(chan error, 1)}
	listening := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.lines = append(p.lines, line)
			if m := bootLine.FindStringSubmatch(line); m != nil {
				p.restored, _ = strconv.Atoi(m[1])
				p.resumed, _ = strconv.Atoi(m[2])
			}
			p.mu.Unlock()
			if addr, ok := strings.CutPrefix(line, "listening on "); ok {
				listening <- addr
			}
		}
	}()
	go func() { p.exited <- cmd.Wait() }()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-p.exited
	})
	select {
	case addr := <-listening:
		p.base = "http://" + addr
	case err := <-p.exited:
		p.exited <- err
		t.Fatalf("fiserver exited before listening: %v\n%s", err, p.dump())
	case <-time.After(15 * time.Second):
		t.Fatalf("fiserver never announced its listener\n%s", p.dump())
	}
	return p
}

func (p *proc) dump() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.lines, "\n")
}

// recovery returns the restored/resumed counts announced at boot.
func (p *proc) recovery() (restored, resumed int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.restored, p.resumed
}

// waitKilled blocks until the process dies and asserts it died to
// SIGKILL — the crash barrier fired — not a clean exit or a panic.
func (p *proc) waitKilled(t *testing.T) {
	t.Helper()
	select {
	case err := <-p.exited:
		p.exited <- err
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
			t.Fatalf("server died, but not to SIGKILL: %v\n%s", err, p.dump())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("crash barrier never fired\n%s", p.dump())
	}
}

// kill SIGKILLs the subprocess from the outside and reaps it.
func (p *proc) kill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	<-p.exited
	p.exited <- nil
}

// stop shuts the server down gracefully (SIGINT + drain) so a later
// generation can reopen its stores.
func (p *proc) stop(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-p.exited:
		p.exited <- err
	case <-time.After(15 * time.Second):
		t.Fatalf("server never drained\n%s", p.dump())
	}
}

// chaosCells is the batch every chaos scenario submits: distinct cells
// so cache hits can only come from the crashed generation's work.
func chaosCells() []campaign.CellSpec {
	return []campaign.CellSpec{
		testutil.MiniSpec("vectoradd", 71),
		testutil.MiniSpec("transpose", 72),
		testutil.MiniSpec("matrixMul", 73),
	}
}

// submitLoose POSTs a batch and tolerates transport errors: a server
// arming post-submit kills itself before it can answer.
func submitLoose(base string, cells []campaign.CellSpec) {
	buf, _ := json.Marshal(map[string]any{"cells": cells})
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(buf))
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// chaosSpec is the experiment the crash-point matrix submits beside the
// batch: the same three benchmarks as one grid, both estimators, so a
// recovery also reassembles AVF-ACE, which the journal holds nothing of.
const chaosSpec = `{"name":"chaos","chips":["Mini NVIDIA"],"benchmarks":["vectoradd","transpose","matrixMul"],"injections":20,"seed":74}`

// streamLoose POSTs the spec to /v1/experiments and reads the stream to
// its end, tolerating the connection dying under it: the job's life is
// in the journal, not the stream.
func streamLoose(base string) {
	resp, err := http.Post(base+"/v1/experiments", "application/json", strings.NewReader(chaosSpec))
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// chaosJob is one column of the crash-point matrix: a way to submit the
// first job of a fresh journal, and the id the journal then gives it.
type chaosJob struct {
	kind   string
	id     string
	cells  int
	submit func(base string)
}

var chaosJobs = []chaosJob{
	{kind: "batch", id: "job-000001", cells: len(chaosCells()), submit: func(base string) { submitLoose(base, chaosCells()) }},
	{kind: "experiment", id: "exp-000001", cells: 3, submit: streamLoose},
}

// rawResult fetches /v1/jobs/{id}/result as raw bytes — the unit of
// the byte-identity assertions.
func rawResult(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %s", resp.StatusCode, body)
	}
	return body
}

// metric scrapes one counter's value from GET /metrics (0 when the
// family has not been incremented in this process).
func metric(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, rest)
			}
			return v
		}
	}
	return 0
}

// cleanReference runs the batch on an uninterrupted server over its own
// stores and returns the result bytes every recovery must reproduce.
func cleanReference(t *testing.T, cells []campaign.CellSpec) []byte {
	t.Helper()
	p := startServer(t, t.TempDir(), "")
	c := &client.Client{Base: p.base}
	var submitted struct {
		ID string `json:"id"`
	}
	testutil.PostJSON(t, p.base, "/v1/jobs", map[string]any{"cells": cells}, &submitted, http.StatusAccepted)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := c.WaitDone(ctx, submitted.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" {
		t.Fatalf("clean run finished %q: %+v", st.State, st)
	}
	return rawResult(t, p.base, submitted.ID)
}

// cleanExperimentReference is cleanReference for the chaos experiment:
// streamed to its end on an uninterrupted server, then fetched the way a
// reconnecting client would.
func cleanExperimentReference(t *testing.T) []byte {
	t.Helper()
	p := startServer(t, t.TempDir(), "")
	streamLoose(p.base)
	testutil.WaitForJob(t, p.base, "exp-000001")
	return rawResult(t, p.base, "exp-000001")
}

// TestCrashPointsRecoverByteIdentical is the heart of the harness: for
// every injected crash barrier, the server SIGKILLs itself mid-job, a
// fresh process recovers from the journal, resumes, and must produce a
// result byte-identical to the uninterrupted reference — with every
// cell that settled before the crash answered from the warm campaign
// store (a cache hit), never re-injected. Each barrier is crossed by
// both kinds of job: a batch, and an experiment streamed from POST
// /v1/experiments (the kind the fleet's traffic actually is).
func TestCrashPointsRecoverByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos harness")
	}
	cells := chaosCells()
	refs := map[string][]byte{"batch": cleanReference(t, cells), "experiment": cleanExperimentReference(t)}

	points := []struct {
		crash string
		// minWarm bounds how many cells must already be settled when the
		// barrier fires — each one must recover as a cache hit.
		minWarm int
		// allWarm asserts the whole batch settled pre-crash: recovery
		// re-injects nothing at all.
		allWarm bool
		// tornTail asserts the recovering process found (and healed) a
		// half-written journal record.
		tornTail bool
	}{
		{crash: service.CrashPostSubmit},
		{crash: service.CrashMidCell, minWarm: 1},
		{crash: service.CrashTornCell, minWarm: 1, tornTail: true},
		{crash: service.CrashPreFinish, minWarm: len(cells), allWarm: true},
	}
	for _, tc := range points {
		t.Run(tc.crash, func(t *testing.T) {
			for _, job := range chaosJobs {
				t.Run(job.kind, func(t *testing.T) {
					want := refs[job.kind]
					dir := t.TempDir()
					gen1 := startServer(t, dir, tc.crash)
					job.submit(gen1.base)
					gen1.waitKilled(t)

					gen2 := startServer(t, dir, "")
					if restored, resumed := gen2.recovery(); restored != 1 || resumed != 1 {
						t.Fatalf("recovered %d jobs / resumed %d, want 1/1\n%s", restored, resumed, gen2.dump())
					}
					c := &client.Client{Base: gen2.base}
					ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
					defer cancel()
					// The id is deterministic: the journal restores the sequence.
					// An experiment's stream died with the first process; its
					// client reconnects by id like a batch client polls.
					st, err := c.WaitDone(ctx, job.id)
					if err != nil {
						t.Fatalf("awaiting resumed job: %v\n%s", err, gen2.dump())
					}
					if st.State != "done" {
						t.Fatalf("resumed job finished %q: %+v", st.State, st)
					}
					got := rawResult(t, gen2.base, job.id)
					if !bytes.Equal(got, want) {
						t.Fatalf("recovered result differs from uninterrupted run:\nclean:     %s\nrecovered: %s", want, got)
					}
					if job.kind == "experiment" {
						if res, err := c.ExperimentResult(ctx, job.id); err != nil || len(res.Tables) != 1 {
							t.Fatalf("ExperimentResult after restart: %+v, %v", res, err)
						}
					}

					// Work conservation, from the recovering process's own counters:
					// every cell is either a warm-store hit or a fresh run, and the
					// cells the crashed generation finished are never re-injected.
					hits := metric(t, gen2.base, "fi_sched_cache_hits_total")
					runs := metric(t, gen2.base, "fi_sched_cell_runs_total")
					if int(hits)+int(runs) != job.cells {
						t.Fatalf("hits %v + runs %v != %d cells", hits, runs, job.cells)
					}
					if int(hits) < tc.minWarm {
						t.Fatalf("only %v cache hits after recovery, want >= %d (completed cells re-injected?)", hits, tc.minWarm)
					}
					if tc.allWarm {
						if inj := metric(t, gen2.base, "fi_inject_injections_total"); inj != 0 {
							t.Fatalf("recovery of a fully-settled job performed %v injections, want 0", inj)
						}
					}
					if torn := metric(t, gen2.base, "fi_store_job_journal_torn_tails_total"); (torn == 1) != tc.tornTail {
						t.Fatalf("torn-tail counter %v, want torn=%v", torn, tc.tornTail)
					}
					if rec := metric(t, gen2.base, "fi_store_jobs_recovered_total"); rec != 1 {
						t.Fatalf("fi_store_jobs_recovered_total %v, want 1", rec)
					}
				})
			}
		})
	}
}

// TestExternalSigkillMidCampaign delivers the SIGKILL from outside the
// process — no barrier, no cooperation — while a large batch is
// mid-flight, then proves the same recovery contract.
func TestExternalSigkillMidCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos harness")
	}
	// A batch big enough to be mid-flight when the signal lands.
	var cells []campaign.CellSpec
	for i := uint64(0); i < 6; i++ {
		s := testutil.MiniSpec("matrixMul", 80+i)
		s.Injections = 100
		cells = append(cells, s)
	}
	want := cleanReference(t, cells)

	dir := t.TempDir()
	gen1 := startServer(t, dir, "")
	var submitted struct {
		ID string `json:"id"`
	}
	testutil.PostJSON(t, gen1.base, "/v1/jobs", map[string]any{"cells": cells}, &submitted, http.StatusAccepted)
	// Let it make some progress so the restart has warm cells to prove
	// work conservation with, then kill -9.
	c1 := &client.Client{Base: gen1.base}
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := c1.Status(context.Background(), submitted.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Done > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never progressed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	gen1.kill(t)

	gen2 := startServer(t, dir, "")
	if restored, resumed := gen2.recovery(); restored != 1 || resumed != 1 {
		t.Fatalf("recovered %d/%d, want 1 restored / 1 resumed\n%s", restored, resumed, gen2.dump())
	}
	c2 := &client.Client{Base: gen2.base}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := c2.WaitDone(ctx, submitted.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" {
		t.Fatalf("resumed job finished %q", st.State)
	}
	got := rawResult(t, gen2.base, submitted.ID)
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered result differs from uninterrupted run:\nclean:     %s\nrecovered: %s", want, got)
	}
	hits := metric(t, gen2.base, "fi_sched_cache_hits_total")
	runs := metric(t, gen2.base, "fi_sched_cell_runs_total")
	if int(hits)+int(runs) != len(cells) {
		t.Fatalf("hits %v + runs %v != %d cells", hits, runs, len(cells))
	}
	if hits < 1 {
		t.Fatal("no cache hits after recovery: the killed generation's settled cells were re-injected")
	}
}

// TestRestartWhileClientWaits is the reconnect half: a client polling
// through client.WaitDone keeps waiting across the crash and the
// restart, and gets the finished job from the second process without
// ever seeing an error.
func TestRestartWhileClientWaits(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos harness")
	}
	dir := t.TempDir()
	gen1 := startServer(t, dir, service.CrashMidCell)
	submitLoose(gen1.base, chaosCells())
	gen1.waitKilled(t)

	// The second generation binds a fresh port; real deployments restart
	// on a fixed address, so point the waiting client at the new base —
	// its transport errors in between are exactly what WaitDone rides out.
	gen2 := startServer(t, dir, "")
	c := &client.Client{Base: gen2.base}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := c.WaitDone(ctx, "job-000001")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Done != st.Total {
		t.Fatalf("job after restart: %+v", st)
	}
	// The listing endpoint is how a reconnecting client rediscovers its
	// jobs when it lost the id with the stream.
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != "job-000001" {
		t.Fatalf("job listing after restart: %+v", jobs)
	}
}
