package finject

import (
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/chips"
	"repro/internal/gpu"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// TestCheckpointLadderSharedUnderRace hammers one Golden's checkpoint
// ladder from many directions at once — several concurrent campaigns,
// each with an eight-worker replica pool, all restoring the same
// snapshots, one canceled genuinely mid-flight while a Prometheus
// scraper reads the shared telemetry registry in a tight loop — and
// asserts (a) the ladder is never mutated (restores deep-copy out of
// it), (b) every surviving campaign is bit-identical to a serial
// full-replay reference, and (c) the canceled campaign returns the
// documented clean partial result. Run under -race (CI does), this is
// the proof that the ladder and the per-round telemetry flushes are
// safe to hang off the scheduler's shared golden cache.
func TestCheckpointLadderSharedUnderRace(t *testing.T) {
	chip := chips.MiniNVIDIA()
	bench, err := workloads.ByName("reduction")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := NewGolden(chip, bench)
	if err != nil {
		t.Fatal(err)
	}
	before := ladderCycles(golden)
	if len(before) == 0 {
		t.Fatal("golden has no checkpoint ladder")
	}

	campaignFor := func(seed uint64) Campaign {
		return Campaign{
			Chip: chip, Benchmark: bench, Structure: gpu.RegisterFile,
			Injections: 60, Seed: seed, Golden: golden, detail: true,
			Policy: Config{Workers: 8},
		}
	}

	// Serial full-replay references, computed before the storm.
	refs := make(map[uint64]*Result)
	for seed := uint64(1); seed <= 2; seed++ {
		c := campaignFor(seed)
		c.Policy = Config{Workers: 1, Checkpoint: &Checkpoint{Off: true}}
		ref, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		refs[seed] = ref
	}
	// Injection telemetry flushes once per round; the watcher below uses
	// the global counter to time the cancel, so baseline it after the
	// reference runs.
	startInj := telemetry.Injections.Value()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	results := make([]*Result, 2)
	errs := make([]error, 2)
	var cancelRes *Result
	var cancelErr error

	// A concurrent scraper: the telemetry registry is shared fleet-wide,
	// so a Prometheus scrape can land at any instant of a campaign —
	// including during the per-round counter flush from eight workers.
	scrapeDone := make(chan struct{})
	var scraperWG sync.WaitGroup
	scraperWG.Add(1)
	go func() {
		defer scraperWG.Done()
		for {
			select {
			case <-scrapeDone:
				return
			default:
				if err := telemetry.Default.WritePrometheus(io.Discard); err != nil {
					t.Errorf("scrape failed: %v", err)
					return
				}
			}
		}
	}()

	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunContext(context.Background(), campaignFor(uint64(i+1)))
		}(i)
	}
	// The doomed campaign runs adaptively so it flushes telemetry after
	// every round; the watcher cancels it only after the global counter
	// proves at least one of its rounds completed — a genuine
	// mid-campaign cancel, not a cancel-before-start.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := campaignFor(99)
		c.Injections = 100_000 // far more than the cancel lets happen
		c.Policy.Margin = 1e-9 // adaptive rounds, but unreachably tight
		cancelRes, cancelErr = RunContext(ctx, c)
	}()
	// The two survivors contribute at most 2*60 injections; anything past
	// that came from the doomed campaign's first adaptive round (100).
	const survivorsMax = 2 * 60
	for telemetry.Injections.Value()-startInj < survivorsMax+adaptiveFirstRound {
		time.Sleep(200 * time.Microsecond)
	}
	cancel()
	wg.Wait()
	close(scrapeDone)
	scraperWG.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("campaign %d: %v", i, err)
		}
		if err := equalResults(refs[uint64(i+1)], results[i]); err != nil {
			t.Fatalf("campaign %d diverges from serial full replay: %v", i, err)
		}
	}

	if cancelErr == nil {
		t.Fatal("canceled campaign returned no error")
	}
	if !errors.Is(cancelErr, context.Canceled) {
		t.Fatalf("canceled campaign error does not wrap context.Canceled: %v", cancelErr)
	}
	if cancelRes != nil {
		if cancelRes.Injections >= 100_000 {
			t.Fatalf("canceled campaign claims to have finished: %d injections", cancelRes.Injections)
		}
		if len(cancelRes.Records) != cancelRes.Injections {
			t.Fatalf("partial result records (%d) disagree with injections (%d)", len(cancelRes.Records), cancelRes.Injections)
		}
	}

	after := ladderCycles(golden)
	if len(after) != len(before) {
		t.Fatalf("ladder length changed under load: %d -> %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("ladder rung %d moved: %d -> %d", i, before[i], after[i])
		}
	}
}
