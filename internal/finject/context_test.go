package finject

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/chips"
	"repro/internal/workloads"
)

func miniCampaign(t *testing.T, n int) Campaign {
	t.Helper()
	b, err := workloads.ByName("vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	return Campaign{
		Chip:       chips.MiniNVIDIA(),
		Benchmark:  b,
		Injections: n,
		Seed:       7,
	}
}

func TestRunContextCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, miniCampaign(t, 50))
	if err == nil {
		t.Fatal("want cancellation error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("canceled before the reference run should yield no result, got %+v", res)
	}
}

func TestRunContextCancelMidCampaign(t *testing.T) {
	c := miniCampaign(t, 200)
	c.Policy.Workers = 1
	// Cancel from a fault-classification hook is not available, so use a
	// context that a goroutine cancels once the first injections land:
	// run the golden up front so the campaign body is all that races.
	golden, err := NewGolden(c.Chip, c.Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	c.Golden = golden
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, c)
	if err == nil {
		t.Fatal("want cancellation error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if res == nil {
		t.Fatal("want a partial result once the reference run exists")
	}
	if res.Injections >= 200 {
		t.Fatalf("partial result claims %d injections, want < 200", res.Injections)
	}
	total := 0
	for _, cnt := range res.Outcomes {
		total += cnt
	}
	if total != res.Injections {
		t.Fatalf("outcome counts sum %d but Injections is %d", total, res.Injections)
	}
}

func TestGoldenReuseMatchesPrivateRun(t *testing.T) {
	base := miniCampaign(t, 60)
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGolden(base.Chip, base.Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	if g.chip.Name != base.Chip.Name || g.bench.Name != base.Benchmark.Name {
		t.Fatalf("golden labels %s/%s", g.chip.Name, g.bench.Name)
	}
	if g.cycles <= 0 {
		t.Fatal("golden reports no cycles")
	}
	shared := base
	shared.Golden = g
	got, err := Run(shared)
	if err != nil {
		t.Fatal(err)
	}
	if got.Outcomes != want.Outcomes {
		t.Fatalf("shared-golden outcomes %v differ from private-golden %v", got.Outcomes, want.Outcomes)
	}
	if got.Occupancy != want.Occupancy || got.GoldenStats != want.GoldenStats {
		t.Fatal("shared-golden run stats differ from private-golden run")
	}
}

func TestGoldenMismatchRejected(t *testing.T) {
	c := miniCampaign(t, 10)
	other, err := workloads.ByName("transpose")
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGolden(c.Chip, other)
	if err != nil {
		t.Fatal(err)
	}
	c.Golden = g
	_, err = Run(c)
	if err == nil || !strings.Contains(err.Error(), "golden run is for") {
		t.Fatalf("mismatched golden accepted: %v", err)
	}
}

// TestGoldenOfAnotherConfigurationRejected: a golden run on the GTO
// variant of the campaign's chip carries the chip's name but is no
// reference for it, and is refused as a golden of another chip is; one
// on an equal copy of the chip is accepted.
func TestGoldenOfAnotherConfigurationRejected(t *testing.T) {
	c := miniCampaign(t, 10)
	gto := *c.Chip
	gto.Scheduler = chips.SchedGTO
	g, err := NewGolden(&gto, c.Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	c.Golden = g
	_, err = Run(c)
	if want := "finject: golden run is for Mini NVIDIA/vectoradd, campaign targets Mini NVIDIA/vectoradd"; err == nil || err.Error() != want {
		t.Fatalf("golden of the GTO variant: %v, want %q", err, want)
	}
	same := *c.Chip
	if c.Golden, err = NewGolden(&same, c.Benchmark); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(c); err != nil {
		t.Fatalf("golden of an equal copy of the chip refused: %v", err)
	}
}
