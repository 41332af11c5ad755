package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/worker"
)

// syncBuffer is a strings.Builder safe for the concurrent writes of the
// server goroutine and the polling test.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// startServer runs fiserver on an ephemeral port and returns its base
// URL plus a stop function that shuts it down and checks the exit error.
func startServer(t *testing.T, extraArgs ...string) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var out, errOut syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, extraArgs...), &out, &errOut)
	}()

	deadline := time.Now().Add(10 * time.Second)
	var addr string
	for addr == "" {
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("server never reported its address:\n%s\n%s", out.String(), errOut.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "listening on "); ok {
				addr = rest
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return "http://" + addr, func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("server exit: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("server did not shut down")
		}
		if !strings.Contains(out.String(), "shut down") {
			t.Errorf("missing shutdown notice:\n%s", out.String())
		}
	}
}

func TestServerEndToEnd(t *testing.T) {
	store := filepath.Join(t.TempDir(), "cells.jsonl")
	base, stop := startServer(t, "-store", store)
	defer stop()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	// A tiny job through the full submit/status/result cycle.
	body := `{"cells":[{"chip":"Mini NVIDIA","benchmark":"vectoradd","structure":"register-file","injections":15,"seed":2}]}`
	resp, err = http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var submitted struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&submitted)
	resp.Body.Close()
	if err != nil || submitted.ID == "" {
		t.Fatalf("submit: %v (%+v)", err, submitted)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s", base, submitted.ID))
		if err != nil {
			t.Fatal(err)
		}
		var status struct {
			State string `json:"state"`
		}
		err = json.NewDecoder(resp.Body).Decode(&status)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if status.State == "done" {
			break
		}
		if status.State != "running" || time.Now().After(deadline) {
			t.Fatalf("job state %q", status.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/%s/result", base, submitted.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d", resp.StatusCode)
	}
}

// TestRemoteModeEndToEnd runs fiserver with -workers-remote plus one
// fiworker against it, and checks that a job executes on the worker and
// that shutdown drains cleanly.
func TestRemoteModeEndToEnd(t *testing.T) {
	base, stop := startServer(t, "-workers-remote", "-lease-ttl", "1s", "-drain-timeout", "10s")
	defer stop()

	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	w := worker.New(&worker.Client{Base: base, Name: "test-worker"}, worker.Options{
		Poll: 20 * time.Millisecond, CampaignWorkers: 2,
	})
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		w.Run(wctx)
	}()
	defer func() { wcancel(); <-workerDone }()

	body := `{"cells":[{"chip":"Mini NVIDIA","benchmark":"vectoradd","structure":"register-file","injections":15,"seed":2},
	                   {"chip":"Mini NVIDIA","benchmark":"transpose","structure":"register-file","injections":15,"seed":2}]}`
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var submitted struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&submitted)
	resp.Body.Close()
	if err != nil || submitted.ID == "" {
		t.Fatalf("submit: %v (%+v)", err, submitted)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s", base, submitted.ID))
		if err != nil {
			t.Fatal(err)
		}
		var status struct {
			State string `json:"state"`
		}
		err = json.NewDecoder(resp.Body).Decode(&status)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if status.State == "done" {
			break
		}
		if status.State != "running" || time.Now().After(deadline) {
			t.Fatalf("job state %q", status.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if w.Completed() == 0 {
		t.Fatal("job finished but the remote worker executed nothing")
	}
}

// TestDrainCancelsStuckJobs submits a job that can never finish (remote
// mode, no workers attached) and checks shutdown still drains within the
// deadline instead of abandoning the job goroutine.
func TestDrainCancelsStuckJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var out, errOut syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers-remote", "-drain-timeout", "5s"}, &out, &errOut)
	}()
	deadline := time.Now().Add(10 * time.Second)
	var addr string
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server never reported its address:\n%s", errOut.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "listening on "); ok {
				addr = rest
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	body := `{"cells":[{"chip":"Mini NVIDIA","benchmark":"vectoradd","structure":"register-file","injections":15,"seed":7}]}`
	resp, err := http.Post("http://"+addr+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("server exit: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("server did not shut down with a stuck job")
	}
	if strings.Contains(errOut.String(), "drain:") {
		t.Fatalf("drain did not finish in time:\n%s", errOut.String())
	}
	if !strings.Contains(out.String(), "shut down") {
		t.Fatalf("missing shutdown notice:\n%s", out.String())
	}
}

func TestRunFlagErrors(t *testing.T) {
	var out, errOut syncBuffer
	if err := run(context.Background(), []string{"-no-such-flag"}, &out, &errOut); err == nil {
		t.Error("bad flag accepted")
	}
	// Retired: ladders live in the heap only.
	if err := run(context.Background(), []string{"-ladder-dir", "ladders"}, &out, &errOut); err == nil {
		t.Error("-ladder-dir accepted")
	}
	if err := run(context.Background(), []string{"-addr", "not-an-address:::"}, &out, &errOut); err == nil {
		t.Error("bad address accepted")
	}
}
