package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/finject"
)

// readCompatKeys loads the pinned pre-checkpoint cell keys (generated
// from the repository state before the checkpoint knob existed; see
// testdata/compat_v1.keys).
func readCompatKeys(t *testing.T) []string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "compat_v1.keys"))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Fields(string(b))
}

func compileKeys(t *testing.T, path string) (Spec, []string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spec, err := Parse(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	p, err := spec.Compile()
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var keys []string
	for _, k := range p.Keys() {
		keys = append(keys, string(k))
	}
	return spec, keys
}

// TestSpecCompatNoCheckpoint is the backward-compatibility regression:
// a v1 spec written before the checkpoint knob existed must still parse
// under strict decoding, normalize without growing a checkpoint block
// (so its canonical serialization is unchanged), and compile to exactly
// the cell keys it compiled to before — meaning every store warmed by
// the old binary stays warm, with zero cold cells.
func TestSpecCompatNoCheckpoint(t *testing.T) {
	t.Parallel()
	path := filepath.Join("testdata", "compat_v1_nocheckpoint.json")
	spec, keys := compileKeys(t, path)

	if spec.Policy.Checkpoint != nil {
		t.Fatalf("parsing added a checkpoint block: %+v", spec.Policy.Checkpoint)
	}
	norm := spec.Normalize()
	if norm.Policy.Checkpoint != nil {
		t.Fatalf("normalize added a checkpoint block: %+v", norm.Policy.Checkpoint)
	}
	out, err := norm.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(out, []byte(`"checkpoint":`)) {
		t.Fatalf("canonical serialization grew a checkpoint field:\n%s", out)
	}

	want := readCompatKeys(t)
	if len(keys) != len(want) {
		t.Fatalf("compiled to %d keys, pinned %d", len(keys), len(want))
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("cell key %d changed: got %s, pinned %s — old stores would go cold", i, keys[i], want[i])
		}
	}
}

// TestSpecCompatWithCheckpoint pins the other direction: a spec that
// does set the checkpoint block parses strictly, carries the knob into
// every compiled campaign — and still compiles to the identical cell
// keys, because checkpointing can never change a result.
func TestSpecCompatWithCheckpoint(t *testing.T) {
	t.Parallel()
	path := filepath.Join("testdata", "compat_v1_checkpoint.json")
	spec, keys := compileKeys(t, path)

	if spec.Policy.Checkpoint == nil || !spec.Policy.Checkpoint.Off {
		t.Fatalf("checkpoint block not preserved: %+v", spec.Policy.Checkpoint)
	}
	p, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range p.Cells {
		if c.Campaign.Policy.Knob() != (finject.Checkpoint{Off: true}) {
			t.Fatalf("cell %s/%s/%s lost the checkpoint knob: %+v",
				c.Chip.Name, c.Benchmark.Name, c.Structure, c.Campaign.Policy.Checkpoint)
		}
	}

	want := readCompatKeys(t)
	if len(keys) != len(want) {
		t.Fatalf("compiled to %d keys, pinned %d", len(keys), len(want))
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("cell key %d differs from the checkpoint-free spec: got %s, want %s — the knob must stay out of cell identity", i, keys[i], want[i])
		}
	}

	// Round-trip: the canonical form keeps the block and reparses to the
	// same spec under strict decoding.
	out, err := spec.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	re, err := Parse(bytes.NewReader(out))
	if err != nil {
		t.Fatalf("canonical form does not reparse strictly: %v\n%s", err, out)
	}
	if re.Policy.Checkpoint == nil || *re.Policy.Checkpoint != *spec.Policy.Checkpoint {
		t.Fatalf("checkpoint block lost in round-trip:\n%s", out)
	}
}
