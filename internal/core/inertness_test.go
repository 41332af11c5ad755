// Package core_test holds the system-level proofs of the figure path:
// what must hold for the paper's three figures across the spec runner,
// the scheduler tiers, the result stores, the telemetry layer and the
// renderer together. The figure drivers that used to live in this
// directory are gone — a figure is experiment.Figure(n) run by an
// experiment.Runner and rendered by internal/report — so the package has
// tests only, all of them on that one path.
package core_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/finject"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// miniFigure returns the canned spec of figure n narrowed to the two
// mini chips: the full benchmark axis and every code path, in seconds.
func miniFigure(n, injections int, seed uint64) (experiment.Spec, error) {
	spec, err := experiment.Figure(n)
	spec.Chips = []string{"Mini NVIDIA", "Mini AMD"}
	spec.Injections, spec.Seed = injections, seed
	return spec, err
}

// runFigures runs Figs. 1, 2 and 3 in order on sched — so Fig. 3 reuses
// the earlier figures' cells, as in cmd/figures — under an optional edit
// of each spec's execution policy.
func runFigures(sched *campaign.Scheduler, edit func(*experiment.Spec)) ([]*experiment.Result, error) {
	runner := &experiment.Runner{Scheduler: sched}
	var results []*experiment.Result
	for n := 1; n <= 3; n++ {
		spec, err := miniFigure(n, 20, 41)
		if err != nil {
			return nil, err
		}
		if edit != nil {
			edit(&spec)
		}
		res, err := runner.Run(context.Background(), spec)
		if err != nil {
			return nil, fmt.Errorf("fig %d: %w", n, err)
		}
		results = append(results, res)
	}
	return results, nil
}

// render serializes figure results the way every surface does. The
// result echoes its spec, policy included — the one part of the document
// an execution knob legitimately changes — so the echo of the two knobs
// the variants turn is cleared first.
func render(t *testing.T, results []*experiment.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, res := range results {
		echo := *res
		echo.Spec.Policy.Checkpoint, echo.Spec.Policy.Margin = nil, 0
		if err := report.WriteExperimentJSON(&buf, &echo); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// baseline is the reference run every variant must reproduce byte for
// byte: default policy, a fresh in-memory scheduler, nothing observing.
var baseline = sync.OnceValues(func() ([]*experiment.Result, error) {
	return runFigures(campaign.New(campaign.Config{}), nil)
})

// inertVariants is the inertness matrix: every way of executing,
// storing or observing a figure run that must never change a byte of
// it. Each row runs on its own scheduler and store, so nothing is served
// from a cache another row filled — except store-binary-reopened, which
// by design reads what the row before it wrote.
var inertVariants = []struct {
	name string
	// edit turns an execution knob in each spec's policy.
	edit func(*experiment.Spec)
	// sched builds the row's scheduler; dir is shared by the rows of one
	// test run. nil means a fresh in-memory scheduler.
	sched func(t *testing.T, dir string) *campaign.Scheduler
	// observe runs the figures with observers attached.
	observe func(t *testing.T, run func())
	// warm marks a row whose store already holds every cell: it must
	// execute 0 campaigns where every other row executes all 40.
	warm bool
}{
	{name: "checkpoint-off", edit: func(s *experiment.Spec) {
		s.Policy.Checkpoint = &finject.Checkpoint{Off: true}
	}},
	{name: "workers-1", sched: func(*testing.T, string) *campaign.Scheduler {
		return campaign.New(campaign.Config{CampaignWorkers: 1})
	}},
	{name: "workers-8", sched: func(*testing.T, string) *campaign.Scheduler {
		return campaign.New(campaign.Config{CampaignWorkers: 8})
	}},
	// An unattainably tight margin runs every campaign adaptively up to
	// the cap, which must realize exactly the fixed-size sample.
	{name: "workers-8-adaptive-to-cap", edit: func(s *experiment.Spec) {
		s.Policy.Margin = 1e-9
	}, sched: func(*testing.T, string) *campaign.Scheduler {
		return campaign.New(campaign.Config{CampaignWorkers: 8})
	}},
	{name: "store-json", sched: func(t *testing.T, dir string) *campaign.Scheduler {
		return storeSched(t, filepath.Join(dir, "cells.jsonl"), campaign.FormatJSON)
	}},
	{name: "store-binary", sched: func(t *testing.T, dir string) *campaign.Scheduler {
		return storeSched(t, filepath.Join(dir, "cells.store"), campaign.FormatBinary)
	}},
	// A fresh open of the store the previous row filled: every cell is
	// decoded from disk, none executed.
	{name: "store-binary-reopened", warm: true, sched: func(t *testing.T, dir string) *campaign.Scheduler {
		return storeSched(t, filepath.Join(dir, "cells.store"), campaign.FormatAuto)
	}},
	{name: "telemetry-on", observe: withObservers},
	{name: "remote-lease-queue", sched: remoteSched},
}

// storeSched opens (or reopens) a disk store and schedules over it.
func storeSched(t *testing.T, path, format string) *campaign.Scheduler {
	t.Helper()
	st, err := campaign.OpenStore(path, format)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return campaign.New(campaign.Config{Store: st})
}

// remoteSched executes every campaign through the distributed tier: a
// lease queue behind a RemoteExecutor, drained by two in-process
// workers that see nothing but the lease wire's task.
func remoteSched(t *testing.T, _ string) *campaign.Scheduler {
	t.Helper()
	q := campaign.NewLeaseQueue(time.Minute)
	stop := make(chan struct{})
	var workers sync.WaitGroup
	for i := 0; i < 2; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			exec := campaign.NewLocalExecutor()
			for {
				select {
				case <-stop:
					return
				default:
				}
				leases := q.Lease("inertness-worker", 1)
				if len(leases) == 0 {
					time.Sleep(time.Millisecond)
					continue
				}
				for _, l := range leases {
					spec := l.Task.Spec.Normalize()
					cfg := l.Task.Policy
					cfg.Workers = 1
					res, err := exec.Execute(context.Background(), campaign.Request{
						Spec: spec, Key: spec.Key(), Policy: cfg.Policy(spec.CheckpointPolicy()),
					})
					msg := ""
					if err != nil {
						msg, res = err.Error(), nil
					}
					q.Complete(l.ID, res, msg)
				}
			}
		}()
	}
	t.Cleanup(func() {
		close(stop)
		workers.Wait()
	})
	return campaign.New(campaign.Config{Executor: campaign.NewRemoteExecutor(q), Workers: 8})
}

// withObservers runs the figures with the whole observability tier
// switched on: a tracer installed, a debug-level logger as the slog
// default, and a goroutine scraping the metrics exposition the whole
// time. Campaigns are functions of (spec, seed); telemetry must stay
// outside that function.
func withObservers(t *testing.T, run func()) {
	t.Helper()
	prevTracer := telemetry.SetTracer(telemetry.NewTracer())
	prevLog := slog.Default()
	slog.SetDefault(telemetry.NewLogger(io.Discard, slog.LevelDebug, "json"))
	stopScrape, scrapeDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for {
			select {
			case <-stopScrape:
				return
			default:
				telemetry.Default.WritePrometheus(io.Discard)
				time.Sleep(time.Millisecond)
			}
		}
	}()
	run()
	close(stopScrape)
	<-scrapeDone
	slog.SetDefault(prevLog)
	telemetry.SetTracer(prevTracer)
	if telemetry.ActiveTracer() != prevTracer {
		t.Fatal("tracer not restored")
	}
}

// checkInert runs the rows of the matrix whose name starts with prefix
// and compares each against the baseline.
func checkInert(t *testing.T, prefix string) {
	base, err := baseline()
	if err != nil {
		t.Fatal(err)
	}
	want := render(t, base)
	dir := t.TempDir()
	for _, v := range inertVariants {
		if !strings.HasPrefix(v.name, prefix) {
			continue
		}
		t.Run(v.name, func(t *testing.T) {
			sched := campaign.New(campaign.Config{})
			if v.sched != nil {
				sched = v.sched(t, dir)
			}
			var (
				results []*experiment.Result
				err     error
			)
			run := func() { results, err = runFigures(sched, v.edit) }
			if v.observe != nil {
				v.observe(t, run)
			} else {
				run()
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := render(t, results); !bytes.Equal(got, want) {
				t.Fatalf("figure JSON differs from the baseline run:\nbaseline:\n%s\n%s:\n%s", want, v.name, got)
			}
			wantRuns := int64(40) // 20 + 14 cells of Figs. 1-2, 6 more for Fig. 3
			if v.warm {
				wantRuns = 0
			}
			if runs := sched.Stats().Runs; runs != wantRuns {
				t.Fatalf("executed %d campaigns, want %d", runs, wantRuns)
			}
		})
	}
}

// The matrix, by what is being proven inert. (Five entry points over one
// table: each keeps the name its proof has had since it was written, so
// CI history and -run filters keep working.)

// Checkpointed fast-forward, at any snapshot spacing, against full
// per-injection replay.
func TestFigureJSONCheckpointEquivalence(t *testing.T) { checkInert(t, "checkpoint") }

// Per-campaign worker count, and adaptive stopping that runs to the cap.
func TestFigureJSONDeterministicAcrossWorkers(t *testing.T) { checkInert(t, "workers") }

// The result store's on-disk format, executed or served from disk.
func TestFigureJSONStoreFormatEquivalence(t *testing.T) { checkInert(t, "store") }

// Tracer, debug logging and a concurrent metrics scraper.
func TestFigureJSONTelemetryEquivalence(t *testing.T) { checkInert(t, "telemetry") }

// Execution across the lease wire instead of in-process.
func TestFigureThroughRemoteTierMatchesLocal(t *testing.T) { checkInert(t, "remote") }
