package cli

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/telemetry"
)

// TestRunWithTrace drives the shared observability flags end to end
// through the campaign driver: -trace must leave a parseable Chrome
// trace-event file with campaign spans, and the tracer must be
// uninstalled afterwards.
func TestRunWithTrace(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	var sb strings.Builder
	args := []string{"-bench", "vectoradd", "-n", "30", "-seed", "3",
		"-trace", tracePath, "-log-level", "warn"}
	if err := Run("gufi", gpu.NVIDIA, args, &sb); err != nil {
		t.Fatal(err)
	}
	if telemetry.SetTracer(nil) != nil {
		t.Fatal("tracer left installed after the run")
	}
	buf, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v\n%s", err, buf)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace file has no spans")
	}
	names := make(map[string]bool)
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
		names[ev.Name] = true
	}
	for _, want := range []string{"cell_execute", "golden_run", "injection_round"} {
		if !names[want] {
			t.Fatalf("trace missing %s span; got %v", want, names)
		}
	}
}

// TestObsFlagErrors pins flag validation: a bad -log-level falls back
// to info rather than failing the run (observability must never block
// science), and an unwritable -trace path is a real error.
func TestObsFlagErrors(t *testing.T) {
	var sb strings.Builder
	args := []string{"-bench", "vectoradd", "-n", "20", "-seed", "3",
		"-log-level", "nonsense"}
	if err := Run("gufi", gpu.NVIDIA, args, &sb); err != nil {
		t.Fatalf("bad -log-level should degrade to info, got %v", err)
	}

	sb.Reset()
	args = []string{"-bench", "vectoradd", "-n", "20", "-seed", "3",
		"-trace", filepath.Join(t.TempDir(), "no", "such", "dir", "t.json")}
	if err := Run("gufi", gpu.NVIDIA, args, &sb); err == nil {
		t.Fatal("unwritable -trace path accepted")
	}
	if telemetry.SetTracer(nil) != nil {
		t.Fatal("tracer left installed after a failed trace write")
	}
}
