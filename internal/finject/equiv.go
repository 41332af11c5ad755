package finject

import (
	"encoding/json"
	"fmt"
	"reflect"
)

// CheckpointEquivalence is the differential proof harness behind the
// checkpointed fast-forward engine: it executes the campaign twice —
// once with checkpointing disabled (every injection replays from
// power-on state) and once with the campaign's own checkpoint
// configuration — with per-injection detail recording forced on, and
// fails unless the two runs are bit-identical: same outcome counts, same
// realized sample size, same golden statistics and occupancy, and the
// same per-injection record stream (fault site, outcome and SDC
// severity of every single injection, in order).
//
// It returns the checkpointed run's result so callers can chain further
// assertions (figure assembly, report JSON). Future engine changes keep
// the same proof by running their scenario matrix through this helper.
func CheckpointEquivalence(c Campaign) (*Result, error) {
	c.Detail = true

	full := c
	full.Policy.Checkpoint = &Checkpoint{Off: true}
	fullRes, err := Run(full)
	if err != nil {
		return nil, fmt.Errorf("finject: full-replay run: %w", err)
	}

	ckpt := c
	on := c.Policy.Knob()
	on.Off = false
	ckpt.Policy.Checkpoint = &on
	ckptRes, err := Run(ckpt)
	if err != nil {
		return nil, fmt.Errorf("finject: checkpointed run: %w", err)
	}

	if err := equalResults(fullRes, ckptRes); err != nil {
		return nil, fmt.Errorf("finject: checkpointed run diverges from full replay for %s/%s/%s seed=%d: %w",
			c.Chip.Name, c.Benchmark.Name, c.Structure, c.Seed, err)
	}
	return ckptRes, nil
}

// PruneEquivalence is the same proof for fault-site pruning (see
// auditEvery): it executes the campaign once with every sampled fault
// simulated and once as campaigns normally run — faults the reference
// run's liveness map proves dead counted Masked without a simulation —
// with detail recording forced on, and fails unless the two are
// bit-identical by the same comparison. It returns the pruned run's
// result.
func PruneEquivalence(c Campaign) (*Result, error) {
	c.Detail = true

	all := c
	all.unpruned = true
	allRes, err := Run(all)
	if err != nil {
		return nil, fmt.Errorf("finject: unpruned run: %w", err)
	}

	c.unpruned = false
	res, err := Run(c)
	if err != nil {
		return nil, fmt.Errorf("finject: pruned run: %w", err)
	}

	if err := equalResults(allRes, res); err != nil {
		return nil, fmt.Errorf("finject: pruned run diverges from the simulated one for %s/%s/%s seed=%d: %w",
			c.Chip.Name, c.Benchmark.Name, c.Structure, c.Seed, err)
	}
	return res, nil
}

// equalResults compares a campaign result with its reference bit for
// bit, reporting the first divergence precisely enough to debug it.
func equalResults(ref, got *Result) error {
	if ref.Injections != got.Injections {
		return fmt.Errorf("realized injections differ: reference=%d got=%d", ref.Injections, got.Injections)
	}
	if ref.Outcomes != got.Outcomes {
		return fmt.Errorf("outcome counts differ: reference=%v got=%v", ref.Outcomes, got.Outcomes)
	}
	if ref.GoldenStats != got.GoldenStats {
		return fmt.Errorf("golden stats differ: reference=%+v got=%+v", ref.GoldenStats, got.GoldenStats)
	}
	if ref.Occupancy != got.Occupancy {
		return fmt.Errorf("occupancy differs: reference=%v got=%v", ref.Occupancy, got.Occupancy)
	}
	if (ref.AVFACE == nil) != (got.AVFACE == nil) || ref.AVFACE != nil && *ref.AVFACE != *got.AVFACE {
		return fmt.Errorf("AVF-ACE differs: reference=%s got=%s", avfText(ref.AVFACE), avfText(got.AVFACE))
	}
	for i := range ref.Records {
		if ref.Records[i] != got.Records[i] {
			return fmt.Errorf("injection #%d differs: reference=%+v got=%+v", i, ref.Records[i], got.Records[i])
		}
	}
	// Belt and braces: the serialized forms must match byte for byte,
	// catching any future Result field the comparisons above miss.
	fb, err := json.Marshal(ref)
	if err != nil {
		return err
	}
	cb, err := json.Marshal(got)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(fb, cb) {
		return fmt.Errorf("serialized results differ:\nreference: %s\ngot:       %s", fb, cb)
	}
	return nil
}

// avfText renders an optional AVF for a divergence report.
func avfText(avf *float64) string {
	if avf == nil {
		return "none"
	}
	return fmt.Sprint(*avf)
}
