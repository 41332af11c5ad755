package report

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/experiment"
)

// TestWriteFigureJSON: the JSON document is the experiment.Result itself
// — decoding it yields an equal value under every estimator, so no
// surface (CLI, stream, job store) can disagree about a figure's shape.
func TestWriteFigureJSON(t *testing.T) {
	for _, est := range []experiment.Estimator{experiment.EstimatorFI, experiment.EstimatorACE, experiment.EstimatorBoth} {
		res := sampleResult(est)
		if est == experiment.EstimatorFI {
			withEPF(res)
		}
		var buf bytes.Buffer
		if err := WriteExperimentJSON(&buf, res); err != nil {
			t.Fatal(err)
		}
		var back experiment.Result
		if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
			t.Fatalf("invalid JSON: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(&back, res) {
			t.Errorf("%s: round trip changed the result:\n%+v\nvs\n%+v", est, &back, res)
		}
		// One indented document, newline-terminated: what `figures -json`
		// prints and the CI smoke diffs.
		if !bytes.HasPrefix(buf.Bytes(), []byte("{\n  \"spec\": {")) || !bytes.HasSuffix(buf.Bytes(), []byte("\n}\n")) {
			t.Errorf("%s: document framing:\n%s", est, buf.Bytes())
		}
	}
}

// TestWriteEPFJSON pins the wire names of the EPF and protection
// sections, and that an infinite EPF travels as 0 rather than being
// dropped.
func TestWriteEPFJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteExperimentJSON(&buf, withEPF(sampleResult(experiment.EstimatorFI))); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EPF struct {
			Rows [][]map[string]any `json:"rows"`
		} `json:"epf"`
		Protection []map[string]any `json:"protection"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.EPF.Rows) != 1 || len(doc.EPF.Rows[0]) != 2 || len(doc.Protection) != 2 {
		t.Fatalf("shape: %+v", doc)
	}
	for _, key := range []string{"chip", "benchmark", "epf", "seconds", "cycles", "reg_avf", "local_avf"} {
		if _, ok := doc.EPF.Rows[0][1][key]; !ok {
			t.Errorf("EPF row lacks %q: %v", key, doc.EPF.Rows[0][1])
		}
	}
	if inf := doc.EPF.Rows[0][1]["epf"]; inf != 0.0 {
		t.Errorf("infinite EPF encoded as %v, want 0", inf)
	}
	for _, key := range []string{"config", "chip", "benchmark", "epf", "sdc_fit", "due_fit", "slowdown", "extra_bits"} {
		if _, ok := doc.Protection[1][key]; !ok {
			t.Errorf("protection row lacks %q: %v", key, doc.Protection[1])
		}
	}
}
