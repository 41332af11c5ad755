package finject

import (
	"strings"
	"testing"

	"repro/internal/ace"
	"repro/internal/chips"
	"repro/internal/devices"
	"repro/internal/gpu"
	"repro/internal/workloads"
)

// captureLadder runs bench on chip once with a ladder builder armed at
// interval and, with live set, the liveness recorder attached, and
// returns the rungs. The mini chips' runs are too short for a golden
// run's ladder, which starts at minCheckpointInterval, to put rungs
// where some tests need them.
func captureLadder(t *testing.T, chip *chips.Chip, bench *workloads.Benchmark, interval int64, live bool) []gpu.Snapshot {
	t.Helper()
	d, err := devices.Acquire(chip)
	if err != nil {
		t.Fatal(err)
	}
	defer devices.Release(chip, d)
	hp, err := bench.New(chip.Vendor)
	if err != nil {
		t.Fatal(err)
	}
	lb := &ladderBuilder{interval: interval}
	lb.arm(d)
	if live {
		d.SetTracer(ace.NewRecorder(d))
	}
	err = hp.Run(d)
	d.SetCheckpointHook(0, nil)
	d.SetTracer(nil)
	if err != nil {
		t.Fatal(err)
	}
	return lb.snaps
}

// TestParseCheckpoint covers the -checkpoint flag grammar.
func TestParseCheckpoint(t *testing.T) {
	good := map[string]Checkpoint{
		"auto":  {},
		"":      {},
		"on":    {},
		"AUTO":  {},
		"off":   {Off: true},
		" Off ": {Off: true},
	}
	for in, want := range good {
		got, err := ParseCheckpoint(in)
		if err != nil {
			t.Errorf("ParseCheckpoint(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseCheckpoint(%q) = %+v, want %+v", in, got, want)
		}
	}
	for _, in := range []string{"0", "-1", "never", "1.5", "12x", "4096"} {
		if _, err := ParseCheckpoint(in); err == nil || !strings.Contains(err.Error(), "want auto or off") {
			t.Errorf("ParseCheckpoint(%q) = %v, want an error naming auto and off", in, err)
		}
	}
}

// TestCheckpointString pins the flag-syntax rendering.
func TestCheckpointString(t *testing.T) {
	cases := map[string]Checkpoint{
		"auto": {},
		"off":  {Off: true},
	}
	for want, ck := range cases {
		if got := ck.String(); got != want {
			t.Errorf("%+v.String() = %q, want %q", ck, got, want)
		}
	}
}
