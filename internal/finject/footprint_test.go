package finject

import (
	"testing"

	"repro/internal/chips"
	"repro/internal/workloads"
)

// TestLadderFootprint bounds what the checkpoint ladders of the paper's
// grid hold on the heap — the 40 (chip, benchmark) pairs a cold figure
// pass keeps live at once. A rung owns the memory, register and
// local-memory pages that changed since the rung before, not a copy of
// every register file on the chip: with flat copies the HD 7970's
// matrixMul ladder weighed 76 MB and the forty together 899 MB.
func TestLadderFootprint(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("forty full-chip reference runs")
	}
	var total int64
	rungs := 0
	for _, chip := range chips.Evaluated() {
		for _, bench := range workloads.All() {
			g, err := NewGolden(chip, bench)
			if err != nil {
				t.Fatal(err)
			}
			var size int64
			for _, s := range g.ladder {
				size += s.SizeBytes()
			}
			if chip.Name == "HD Radeon 7970" && bench.Name == "matrixMul" && (size == 0 || size > 4<<20) {
				t.Errorf("%s / %s: the ladder's %d rungs own %d bytes, want at most 4 MiB", chip.Name, bench.Name, len(g.ladder), size)
			}
			total += size
			rungs += len(g.ladder)
		}
	}
	t.Logf("%d rungs own %d bytes", rungs, total)
	if total > 64<<20 {
		t.Errorf("the forty ladders own %d bytes, want at most 64 MiB", total)
	}
}
