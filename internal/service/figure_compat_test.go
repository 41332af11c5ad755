package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/ace"
	"repro/internal/chips"
	"repro/internal/devices"
	"repro/internal/experiment"
	"repro/internal/finject"
	"repro/internal/gpu"
	"repro/internal/workloads"
)

// referenceFigure1 measures one (chip, benchmark) cell of Fig. 1 straight
// on the injection engine and ace.Measure — no scheduler, no spec
// runner — and wraps it in the result the spec must produce. It is the
// independent reference the served figure has to match byte for byte.
func referenceFigure1(t *testing.T, spec experiment.Spec, chip *chips.Chip, bench *workloads.Benchmark) *experiment.Result {
	t.Helper()
	res, err := finject.Run(finject.Campaign{
		Chip:       chip,
		Benchmark:  bench,
		Structure:  gpu.RegisterFile,
		Injections: spec.Injections,
		Seed:       experiment.CellSeed(spec.Seed, chip.Name, bench.Name, gpu.RegisterFile),
		Policy:     finject.Policy{Confidence: 0.99},
	})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := res.AVFInterval(0.99)
	if err != nil {
		t.Fatal(err)
	}
	d, err := devices.New(chip)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := bench.New(chip.Vendor)
	if err != nil {
		t.Fatal(err)
	}
	regACE, _, runStats, err := ace.Measure(d, hp)
	if err != nil {
		t.Fatal(err)
	}
	cell := &experiment.Cell{
		Chip:       chip.Name,
		Benchmark:  bench.Name,
		Structure:  gpu.RegisterFile,
		AVFFI:      res.AVF(),
		AVFFILo:    lo,
		AVFFIHi:    hi,
		AVFACE:     regACE,
		Occupancy:  res.Occupancy,
		Cycles:     runStats.Cycles,
		Injections: res.Injections,
		Outcomes:   res.Outcomes,
	}
	// The figures' per-chip "average" group carries only the averaged
	// fields; over one benchmark it is the cell's own values.
	avg := &experiment.Cell{
		Chip: chip.Name, Benchmark: "average", Structure: gpu.RegisterFile,
		AVFFI: cell.AVFFI, AVFACE: cell.AVFACE, Occupancy: cell.Occupancy,
	}
	return &experiment.Result{
		Spec:       spec,
		Chips:      []string{chip.Name},
		Benchmarks: []string{bench.Name},
		Tables: []*experiment.Table{{
			Structure: gpu.RegisterFile,
			Cells:     [][]*experiment.Cell{{cell}},
			Averages:  []*experiment.Cell{avg},
		}},
	}
}

// TestFigureEndpointCompat pins what a figure run puts on the wire. The
// Fig. 1 spec POSTed to /v1/experiments — the one way a figure is served
// — must stream exactly these NDJSON bytes: the job line, one progress
// line per cell, and a result line whose experiment.Result equals the
// reconstruction made directly on the measurement engines.
func TestFigureEndpointCompat(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	chip := chips.MiniNVIDIA()
	bench, err := workloads.ByName("vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := experiment.Figure(1)
	if err != nil {
		t.Fatal(err)
	}
	spec.Chips, spec.Benchmarks = []string{chip.Name}, []string{bench.Name}
	spec.Injections, spec.Seed = 40, 5
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := ts.Client().Post(ts.URL+"/v1/experiments", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != 200 || !strings.Contains(ct, "ndjson") {
		t.Fatalf("status %d, content type %q", resp.StatusCode, ct)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	result, err := json.Marshal(referenceFigure1(t, spec, chip, bench))
	if err != nil {
		t.Fatal(err)
	}
	want := `{"event":"job","id":"exp-000001","name":"fig1-register-file-avf","total":1}` + "\n" +
		`{"event":"cell","chip":"Mini NVIDIA","benchmark":"vectoradd","structure":"register-file","done":1,"total":1}` + "\n" +
		`{"event":"result","id":"exp-000001","name":"fig1-register-file-avf","result":` + string(result) + "}\n"
	if string(got) != want {
		t.Fatalf("figure stream drifted from the pinned bytes:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
