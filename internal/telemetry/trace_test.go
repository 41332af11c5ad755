package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

func TestStartSpanNoTracerIsNoOp(t *testing.T) {
	SetTracer(nil)
	end := StartSpan(context.Background(), "noop")
	end() // must not panic or record anywhere
}

func TestTracerRecordsSpansWithCorrelation(t *testing.T) {
	tr := NewTracer()
	prev := SetTracer(tr)
	defer SetTracer(prev)

	ctx := WithCell(WithJob(context.Background(), "job-000001"), "cell-a")
	StartSpan(ctx, "golden_run")()
	StartSpan(context.Background(), "anonymous")()
	if tr.Len() != 2 {
		t.Fatalf("recorded %d spans, want 2", tr.Len())
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   *int64            `json:"ts"`
			Dur  *int64            `json:"dur"`
			Pid  int               `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(out.TraceEvents) != 2 {
		t.Fatalf("trace has %d events, want 2", len(out.TraceEvents))
	}
	ev := out.TraceEvents[0]
	if ev.Name != "golden_run" || ev.Ph != "X" || ev.Ts == nil || ev.Dur == nil {
		t.Fatalf("malformed complete event: %+v", ev)
	}
	if ev.Args["job"] != "job-000001" || ev.Args["cell"] != "cell-a" {
		t.Fatalf("span lost correlation args: %+v", ev.Args)
	}
	if out.TraceEvents[1].Args != nil {
		t.Fatalf("uncorrelated span grew args: %+v", out.TraceEvents[1].Args)
	}
}

func TestSetTracerSwapsAtomically(t *testing.T) {
	a, b := NewTracer(), NewTracer()
	SetTracer(a)
	if got := SetTracer(b); got != a {
		t.Fatal("SetTracer did not return the previous tracer")
	}
	if SetTracer(nil) != b {
		t.Fatal("SetTracer did not install the tracer")
	}
}
