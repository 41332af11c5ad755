package devices_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/chips"
	"repro/internal/devices"
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/trace_stream.golden from what the simulators trace now")

// TestTraceStreamPinned pins the tracer events of every fault-free run of
// the ten benchmarks on both mini chips: an FNV-64a digest of the events
// in arrival order, register accesses expanded to one event per entry,
// local accesses, allocations and frees as they come (see eventHash). The
// ACE sums and the liveness tables fault-site pruning searches are
// functions of this stream, so a change to how the simulators report
// accesses must leave it byte-equal. testdata/trace_stream.golden was
// recorded while every register access was its own event; -update is for
// an intended change of what the simulators execute, never for a change
// of how they report it.
func TestTraceStreamPinned(t *testing.T) {
	var b strings.Builder
	for _, chip := range []*chips.Chip{chips.MiniNVIDIA(), chips.MiniAMD()} {
		for _, bench := range workloads.All() {
			d, err := devices.New(chip)
			if err != nil {
				t.Fatal(err)
			}
			hp, err := bench.New(vendorOf(t, d))
			if err != nil {
				t.Fatal(err)
			}
			tr := newEventHash()
			d.SetTracer(tr)
			if err := hp.Run(d); err != nil {
				t.Fatalf("%s/%s: %v", chip.Name, bench.Name, err)
			}
			fmt.Fprintf(&b, "%s/%s events=%d fnv64a=%016x\n", chip.Name, bench.Name, tr.n, tr.h.Sum64())
		}
	}
	const golden = "testdata/trace_stream.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("trace stream differs from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}
