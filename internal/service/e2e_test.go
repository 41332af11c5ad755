package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/client"
	"repro/internal/experiment"
	"repro/internal/worker"
)

// TestDistributedFigureSurvivesWorkerDeath is the distributed tier's
// end-to-end acceptance test: one in-process fiserver in remote-worker
// mode, two fiworkers, a multi-cell figure spec, one worker killed
// mid-campaign — and the final experiment.Result must equal the
// single-process output byte for byte.
func TestDistributedFigureSurvivesWorkerDeath(t *testing.T) {
	// The TTL must comfortably exceed a heartbeat interval even when the
	// race detector slows everything ~10x, or healthy leases expire and
	// cells restart forever; cells are sized so several remain when the
	// first worker dies.
	const (
		ttl        = 3 * time.Second
		injections = 120
		seed       = 9
	)
	chipNames := []string{"Mini NVIDIA", "Mini AMD"}
	benchNames := []string{"vectoradd", "transpose"}

	q := campaign.NewLeaseQueue(ttl)
	sched := campaign.New(campaign.Config{Executor: campaign.NewRemoteExecutor(q), Workers: 64})
	srv := NewServer(sched)
	srv.ServeWorkers(q)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	newWorker := func(name string) (*worker.Worker, context.CancelFunc, chan struct{}) {
		ctx, cancel := context.WithCancel(context.Background())
		w := worker.New(&worker.Client{Base: ts.URL, Name: name}, worker.Options{
			Concurrency: 1, CampaignWorkers: 2, Poll: 50 * time.Millisecond,
		})
		done := make(chan struct{})
		go func() {
			defer close(done)
			w.Run(ctx)
		}()
		return w, cancel, done
	}
	doomed, killDoomed, doomedDone := newWorker("doomed")
	survivor, killSurvivor, survivorDone := newWorker("survivor")
	defer func() {
		killSurvivor()
		<-survivorDone
	}()

	// Kill one worker as soon as the campaign is demonstrably underway:
	// at least one cell finished, others still pending or leased.
	go func() {
		for {
			st := sched.Stats()
			if st.Runs >= 1 {
				killDoomed()
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Fig. 1 narrowed to the mini grid, through the one door a figure
	// has: its spec POSTed to /v1/experiments.
	spec, err := experiment.Figure(1)
	if err != nil {
		t.Fatal(err)
	}
	spec.Chips, spec.Benchmarks = chipNames, benchNames
	spec.Injections, spec.Seed = injections, seed
	remote, err := (&client.Client{Base: ts.URL}).RunExperiment(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-doomedDone

	// The doomed worker died mid-campaign; the survivor carried the rest.
	if survivor.Completed() == 0 {
		t.Fatal("surviving worker completed nothing")
	}
	wantCells := int64(len(chipNames) * len(benchNames))
	if runs := sched.Stats().Runs; runs != wantCells {
		t.Fatalf("scheduler ran %d cells, want %d", runs, wantCells)
	}
	if doomed.Completed() >= wantCells {
		t.Fatal("the doomed worker finished the whole campaign before dying; nothing was redistributed")
	}

	// Single-process reference: the same spec on a private scheduler
	// with the default local executor.
	local, err := (&experiment.Runner{}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	localJSON, err := json.Marshal(local)
	if err != nil {
		t.Fatal(err)
	}
	remoteJSON, err := json.Marshal(remote)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(localJSON, remoteJSON) {
		t.Fatalf("distributed figure differs from the single-process run:\nlocal:  %s\nremote: %s",
			localJSON, remoteJSON)
	}
}
