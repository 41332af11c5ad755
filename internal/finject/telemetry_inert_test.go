package finject

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"reflect"
	"testing"

	"repro/internal/chips"
	"repro/internal/gpu"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// TestTelemetryInertRecordStream is the engine-level inertness proof:
// one campaign with per-injection detail recording forced on, run
// unobserved and then under the full observer set — tracer installed,
// debug slog default, and concurrent scrapes of the metrics registry —
// must produce byte-identical serialized results, down to the fault
// site and outcome of every single injection. The observed run goes
// through CheckpointEquivalence, so the checkpointed-vs-full proof of
// PR 5 holds under observation too.
func TestTelemetryInertRecordStream(t *testing.T) {
	bench, err := workloads.ByName("matrixMul")
	if err != nil {
		t.Fatal(err)
	}
	c := Campaign{
		Chip: chips.MiniNVIDIA(), Benchmark: bench, Structure: gpu.RegisterFile,
		Injections: 60, Seed: 41, Detail: true,
		Policy: Config{Workers: 4},
	}

	offRes, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	off, err := json.Marshal(offRes)
	if err != nil {
		t.Fatal(err)
	}

	prevTracer := telemetry.SetTracer(telemetry.NewTracer())
	prevLog := slog.Default()
	slog.SetDefault(telemetry.NewLogger(io.Discard, slog.LevelDebug, "json"))
	scrapeDone := make(chan struct{})
	stopScrape := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for {
			select {
			case <-stopScrape:
				return
			default:
				telemetry.Default.WritePrometheus(io.Discard)
			}
		}
	}()
	onRes, err := CheckpointEquivalence(c)
	close(stopScrape)
	<-scrapeDone
	slog.SetDefault(prevLog)
	telemetry.SetTracer(prevTracer)
	if err != nil {
		t.Fatal(err)
	}
	on, err := json.Marshal(onRes)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(off, on) {
		t.Fatalf("record stream differs with telemetry on:\noff: %s\non:  %s", off, on)
	}
}

// TestLiveRecorderInert: the liveness recorder is an observer of the
// reference run like any other. On both vendors the run it is attached
// to must be the run without it — statistics, output bytes and ladder —
// and a campaign's results must be byte-identical whether its reference
// run carried the recorder or not.
func TestLiveRecorderInert(t *testing.T) {
	bench, err := workloads.ByName("reduction")
	if err != nil {
		t.Fatal(err)
	}
	for _, chip := range []*chips.Chip{chips.MiniNVIDIA(), chips.MiniAMD()} {
		plain, err := runGolden(chip, bench, Checkpoint{Interval: 512}, false)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runGolden(chip, bench, Checkpoint{Interval: 512}, true)
		if err != nil {
			t.Fatal(err)
		}
		if plain.live != nil || traced.live == nil {
			t.Fatalf("%s: liveness map present=%v without the recorder, %v with it", chip.Name, plain.live != nil, traced.live != nil)
		}
		if plain.stats != traced.stats || plain.cycles != traced.cycles {
			t.Errorf("%s: statistics differ under the recorder: %+v vs %+v", chip.Name, plain.stats, traced.stats)
		}
		if !reflect.DeepEqual(plain.bytes, traced.bytes) || !reflect.DeepEqual(plain.outputs, traced.outputs) {
			t.Errorf("%s: outputs differ under the recorder", chip.Name)
		}
		if len(plain.ladder) == 0 || len(plain.ladder) != len(traced.ladder) {
			t.Fatalf("%s: ladders of %d and %d rungs", chip.Name, len(plain.ladder), len(traced.ladder))
		}
		for i := range plain.ladder {
			if plain.ladder[i].Cycle() != traced.ladder[i].Cycle() || plain.ladder[i].SizeBytes() != traced.ladder[i].SizeBytes() {
				t.Errorf("%s: rung %d differs under the recorder", chip.Name, i)
			}
		}
		// No Golden supplied: the unpruned run makes its reference run
		// without the recorder, the pruned run with it.
		if _, err := PruneEquivalence(Campaign{
			Chip: chip, Benchmark: bench, Structure: gpu.LocalMemory, Injections: 40, Seed: 9,
		}); err != nil {
			t.Error(err)
		}
	}
}
