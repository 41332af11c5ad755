package main

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/service"
)

// syncBuffer is a strings.Builder safe for the worker's concurrent log
// writes.
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

func TestWorkerRunAgainstServer(t *testing.T) {
	q := campaign.NewLeaseQueue(time.Minute)
	sched := campaign.New(campaign.Config{Executor: campaign.NewRemoteExecutor(q), Workers: 64})
	srv := service.NewServer(sched)
	srv.ServeWorkers(q)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var out, errOut syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-server", ts.URL, "-name", "test-worker", "-poll", "20ms", "-campaign-workers", "1",
		}, &out, &errOut)
	}()

	// One cell through the fleet of one.
	c, err := campaign.CellSpec{
		Chip: "Mini NVIDIA", Benchmark: "vectoradd", Injections: 15, Seed: 3,
	}.Normalize().Campaign()
	if err != nil {
		t.Fatal(err)
	}
	runCtx, runCancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer runCancel()
	res, err := sched.Run(runCtx, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Injections != 15 {
		t.Fatalf("realized %d injections", res.Injections)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("worker exit: %v\n%s", err, errOut.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not stop")
	}
	if !strings.Contains(out.String(), "worker test-worker serving") {
		t.Fatalf("missing banner:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "1 cells completed") {
		t.Fatalf("missing completion summary:\n%s", out.String())
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
	if err := run(context.Background(), []string{"-concurrency", "0"}, &out, &errOut); err == nil {
		t.Error("zero concurrency accepted")
	}
}
