package campaign

import (
	"context"
	"testing"

	"repro/internal/finject"
)

// TestSchedulerAdaptivePolicyReuse covers the cache-sufficiency rules:
// an adaptive cell that stopped early serves equal-or-looser requests, a
// fixed-size (or tighter) request upgrades it in place, and the upgraded
// full-cap cell then serves everything.
func TestSchedulerAdaptivePolicyReuse(t *testing.T) {
	s := New(Config{Workers: 1, CampaignWorkers: 2})
	ctx := context.Background()
	const cap = 400

	c := testCampaign(t, "vectoradd")
	c.Injections = cap
	c.Policy = finject.Config{Margin: 0.1, Confidence: 0.99}

	first, err := s.Run(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	if first.Injections >= cap {
		t.Fatalf("adaptive cell ran %d injections, want early stop below %d", first.Injections, cap)
	}
	if st := s.Stats(); st.Runs != 1 || st.Injections != int64(first.Injections) {
		t.Fatalf("stats %+v after one adaptive run", st)
	}

	// A looser margin is answered straight from the store.
	loose := c
	loose.Policy.Margin = 0.2
	res, err := s.Run(ctx, loose)
	if err != nil {
		t.Fatal(err)
	}
	if res != first {
		t.Fatal("looser request did not reuse the cached cell")
	}
	if st := s.Stats(); st.Hits != 1 || st.Upgrades != 0 {
		t.Fatalf("stats %+v, want a pure hit", st)
	}

	// A fixed-size request for the same cap needs the full sample: the
	// cell is re-run with the tighter policy and overwritten.
	fixed := c
	fixed.Policy = finject.Config{}
	res, err = s.Run(ctx, fixed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Injections != cap {
		t.Fatalf("upgraded cell has %d injections, want %d", res.Injections, cap)
	}
	st := s.Stats()
	if st.Upgrades != 1 || st.Runs != 2 {
		t.Fatalf("stats %+v, want the fixed request to upgrade the cell", st)
	}

	// The full-cap cell now satisfies any policy for this cap.
	res2, err := s.Run(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	if res2 != res {
		t.Fatal("adaptive request did not reuse the upgraded cell")
	}
	if st := s.Stats(); st.Hits != 2 || st.Runs != 2 {
		t.Fatalf("stats %+v after reuse of the upgraded cell", st)
	}
}

// TestSpecOfResolvesPolicyCap: MaxInjections is part of the cell identity
// (it changes the fault sample's bound) while Margin and Confidence are
// not (they only decide when to stop).
func TestSpecOfResolvesPolicyCap(t *testing.T) {
	c := testCampaign(t, "vectoradd")
	c.Injections = 500

	base := SpecOf(c)
	if base.Injections != 500 {
		t.Fatalf("spec injections %d, want 500", base.Injections)
	}

	withMax := c
	withMax.Policy.MaxInjections = 120
	if got := SpecOf(withMax).Injections; got != 120 {
		t.Fatalf("spec injections %d, want MaxInjections 120", got)
	}

	adaptive := c
	adaptive.Policy.Margin = 0.05
	adaptive.Policy.Confidence = 0.95
	if SpecOf(adaptive).Key() != base.Key() {
		t.Fatal("margin/confidence leaked into the cell identity")
	}
	if SpecOf(withMax).Key() == base.Key() {
		t.Fatal("cap change did not change the cell identity")
	}
}
