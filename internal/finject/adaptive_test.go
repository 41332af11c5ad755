package finject

import (
	"testing"

	"repro/internal/chips"
	"repro/internal/gpu"
	"repro/internal/workloads"
)

func adaptiveCampaign(t *testing.T, cap int, pol Config) Campaign {
	t.Helper()
	b, err := workloads.ByName("vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	return Campaign{
		Chip:       chips.MiniNVIDIA(),
		Benchmark:  b,
		Structure:  gpu.RegisterFile,
		Injections: cap,
		Seed:       42,
		Policy:     pol,
	}
}

// TestAdaptiveStopsEarly is the headline property: a high-confidence cell
// (vectoradd's register-file AVF is far from 0.5, so its interval
// tightens quickly) must stop well below the cap once the Wilson interval
// half-width reaches the requested margin.
func TestAdaptiveStopsEarly(t *testing.T) {
	const cap = 2000
	res, err := Run(adaptiveCampaign(t, cap, Config{Margin: 0.1, Confidence: 0.99}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Injections >= cap {
		t.Fatalf("adaptive campaign ran all %d injections, want early stop", cap)
	}
	if res.Injections < adaptiveFirstRound {
		t.Fatalf("adaptive campaign stopped at %d, before the first round of %d", res.Injections, adaptiveFirstRound)
	}
	hw, err := res.HalfWidth(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if hw > 0.1 {
		t.Fatalf("stopped with half-width %.4f > margin 0.1", hw)
	}
	total := 0
	for _, cnt := range res.Outcomes {
		total += cnt
	}
	if total != res.Injections {
		t.Fatalf("outcome counts sum %d but Injections is %d", total, res.Injections)
	}
}

// TestAdaptiveRunsToCap: an unattainable margin degrades to the fixed
// sample size — the cap is a hard bound.
func TestAdaptiveRunsToCap(t *testing.T) {
	const cap = 150
	res, err := Run(adaptiveCampaign(t, cap, Config{Margin: 1e-6}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Injections != cap {
		t.Fatalf("got %d injections, want the cap %d", res.Injections, cap)
	}
}

// TestAdaptivePrefixMatchesFixed: the adaptive engine must inject the
// exact same fault sample as a fixed campaign of the realized size —
// rounds only decide when to stop, never what to inject.
func TestAdaptivePrefixMatchesFixed(t *testing.T) {
	adaptive, err := Run(adaptiveCampaign(t, 2000, Config{Margin: 0.1}))
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := Run(adaptiveCampaign(t, adaptive.Injections, Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Outcomes != fixed.Outcomes {
		t.Fatalf("adaptive outcomes %v != fixed prefix outcomes %v", adaptive.Outcomes, fixed.Outcomes)
	}
}

// TestAdaptiveMaxInjectionsOverridesCap: Policy.MaxInjections wins over
// Campaign.Injections when both are set.
func TestAdaptiveMaxInjectionsOverridesCap(t *testing.T) {
	res, err := Run(adaptiveCampaign(t, 500, Config{Margin: 1e-6, MaxInjections: 120}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Injections != 120 {
		t.Fatalf("got %d injections, want MaxInjections 120", res.Injections)
	}
}

func TestPolicyCap(t *testing.T) {
	cases := []struct {
		pol        Config
		injections int
		want       int
	}{
		{Config{}, 0, DefaultInjections},
		{Config{}, 300, 300},
		{Config{MaxInjections: 50}, 300, 50},
		{Config{MaxInjections: 50}, 0, 50},
	}
	for _, c := range cases {
		if got := c.pol.Cap(c.injections); got != c.want {
			t.Errorf("Cap(%+v, %d) = %d, want %d", c.pol, c.injections, got, c.want)
		}
	}
}

func TestPolicySatisfiedBy(t *testing.T) {
	// 0 failures in 400 trials: Wilson half-width at 99% is ~0.008.
	tight := &Result{Injections: 400}
	tight.Outcomes[gpu.OutcomeMasked] = 400
	// 0 failures in 100 trials: half-width ~0.032.
	loose := &Result{Injections: 100}
	loose.Outcomes[gpu.OutcomeMasked] = 100

	fixed := Config{}
	adaptive := Config{Margin: 0.02, Confidence: 0.99}

	if fixed.SatisfiedBy(nil, 400) {
		t.Error("nil result satisfied a request")
	}
	if !fixed.SatisfiedBy(tight, 400) {
		t.Error("full-cap result rejected by fixed request")
	}
	if fixed.SatisfiedBy(loose, 400) {
		t.Error("partial result satisfied a fixed request")
	}
	if !adaptive.SatisfiedBy(tight, 2000) {
		t.Error("tight result rejected by adaptive request within margin")
	}
	if adaptive.SatisfiedBy(loose, 2000) {
		t.Error("loose result satisfied an adaptive request with a tighter margin")
	}
	if !adaptive.SatisfiedBy(loose, 100) {
		t.Error("result at the cap rejected by adaptive request")
	}
}
