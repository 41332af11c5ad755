package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestProtectionSweepPinned pins the bytes of a protection sweep's JSON
// result (the document `figures -spec … -json` prints and POST
// /v1/experiments streams last): the echoed spec with its protection
// block, the EPF table and every protection row. The configurations name
// every scheme and set one perf_overhead, so the spec's protection types,
// the scheme names, the row encoding and both derived metrics' reads of
// the measured cells are all under the pin. The golden was recorded
// before protect.Config became the spec's protection block; regenerate
// with `go test ./internal/experiment -run TestProtectionSweepPinned
// -update` only after an intended change to the result.
func TestProtectionSweepPinned(t *testing.T) {
	t.Parallel()
	const golden = "testdata/protection_sweep.json"
	spec, err := Parse(strings.NewReader(`{
		"version": 1,
		"name": "mini-protection-pin",
		"chips": ["Mini NVIDIA", "Mini AMD"],
		"benchmarks": ["matrixMul", "reduction"],
		"structures": ["register-file", "local-memory"],
		"estimator": "fi",
		"injections": 12,
		"seed": 5,
		"metrics": {
			"fit": true,
			"epf": true,
			"protection": [
				{"name": "unprotected"},
				{"name": "explicit-none", "schemes": [{"structure": "register-file", "scheme": "none"}]},
				{"name": "parity-rf", "schemes": [{"structure": "register-file", "scheme": "parity"}]},
				{"name": "mixed", "schemes": [
					{"structure": "register-file", "scheme": "secded", "perf_overhead": 0.125},
					{"structure": "local-memory", "scheme": "parity"}
				]}
			]
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Runner{}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("protection sweep result differs from %s:\n%s", golden, got.Bytes())
	}
}
