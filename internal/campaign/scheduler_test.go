package campaign

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/finject"
	"repro/internal/gpu"
)

func TestSchedulerDeterministicAcrossWorkerCounts(t *testing.T) {
	c := testCampaign(t, "vectoradd")
	var outcomes [][gpu.NumOutcomes]int
	for _, workers := range []int{1, 4} {
		s := New(Config{Workers: workers, CampaignWorkers: workers})
		res, err := s.Run(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		outcomes = append(outcomes, res.Outcomes)
	}
	if outcomes[0] != outcomes[1] {
		t.Fatalf("worker count changed outcomes: %v vs %v", outcomes[0], outcomes[1])
	}
}

func TestSchedulerStoreHit(t *testing.T) {
	s := New(Config{})
	c := testCampaign(t, "vectoradd")
	first, err := s.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("second run did not return the stored result")
	}
	st := s.Stats()
	if st.Runs != 1 || st.Hits != 1 {
		t.Fatalf("stats %+v, want 1 run and 1 hit", st)
	}
}

func TestSchedulerCoalescesConcurrentDuplicates(t *testing.T) {
	s := New(Config{})
	c := testCampaign(t, "vectoradd")
	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Run(context.Background(), c)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Runs != 1 {
		t.Fatalf("%d duplicate clients caused %d executions, want 1", clients, st.Runs)
	}
	if st.Hits+st.Joins != clients-1 {
		t.Fatalf("stats %+v: hits+joins should cover the other %d clients", st, clients-1)
	}
}

func TestSchedulerSharesGoldenAcrossStructures(t *testing.T) {
	s := New(Config{})
	reg := testCampaign(t, "reduction")
	local := reg
	local.Structure = gpu.LocalMemory
	batch := []finject.Campaign{reg, local}
	if _, err := s.RunBatch(context.Background(), batch, nil); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Runs != 2 {
		t.Fatalf("want 2 campaign executions, got %+v", st)
	}
	if st.GoldenRuns != 1 {
		t.Fatalf("want one shared golden run for both structures, got %d", st.GoldenRuns)
	}
}

func TestSchedulerBatchOrderAndProgress(t *testing.T) {
	s := New(Config{})
	a := testCampaign(t, "vectoradd")
	b := testCampaign(t, "transpose")
	var mu sync.Mutex
	calls := 0
	results, err := s.RunBatch(context.Background(), []finject.Campaign{a, b, a},
		func(i int, res *finject.Result, cached bool, err error) {
			mu.Lock()
			calls++
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("onCell ran %d times, want 3", calls)
	}
	if len(results) != 3 || results[0] == nil || results[1] == nil || results[2] == nil {
		t.Fatalf("missing results: %v", results)
	}
	if results[0].Outcomes != results[2].Outcomes {
		t.Fatal("duplicate cells disagree")
	}
	if s.Stats().Runs != 2 {
		t.Fatalf("duplicate within batch re-executed: %+v", s.Stats())
	}
}

func TestSchedulerCancellationMidBatch(t *testing.T) {
	s := New(Config{Workers: 1, CampaignWorkers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	batch := make([]finject.Campaign, 6)
	for i := range batch {
		c := testCampaign(t, "vectoradd")
		c.Seed = uint64(100 + i) // distinct cells, no dedup
		batch[i] = c
	}
	done := 0
	_, err := s.RunBatch(ctx, batch, func(i int, res *finject.Result, cached bool, err error) {
		if err == nil {
			done++
			once.Do(cancel) // cancel as soon as the first cell lands
		}
	})
	if err == nil {
		t.Fatal("want cancellation error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if done == 0 || done == len(batch) {
		t.Fatalf("done=%d cells, want a strict partial batch", done)
	}
	if got := int(s.Stats().Runs); got >= len(batch) {
		t.Fatalf("all %d cells ran despite cancellation", got)
	}
}

func TestSchedulerRejectsIncompleteCampaign(t *testing.T) {
	s := New(Config{})
	if _, err := s.Run(context.Background(), finject.Campaign{}); err == nil {
		t.Fatal("campaign without chip/benchmark accepted")
	}
}
