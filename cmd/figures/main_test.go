package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/gpu"
	"repro/internal/service"
)

func TestRunTinyFigure(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{"-fig", "1", "-chips", "Mini NVIDIA", "-bench", "vectoradd", "-n", "20", "-seed", "5"}
	if err := run(context.Background(), args, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fig1-register-file-avf") || !strings.Contains(out.String(), "vectoradd") {
		t.Fatalf("figure output:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), `msg="campaigns done" runs=1`) {
		t.Fatalf("campaign summary missing:\n%s", errOut.String())
	}
}

func TestRunTinyFigureJSON(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{"-fig", "2", "-chips", "Mini AMD", "-bench", "reduction", "-n", "20", "-json"}
	if err := run(context.Background(), args, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	// Stdout is exactly one experiment.Result document; the wall-time
	// note goes to the log.
	var doc experiment.Result
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if doc.Spec.Name != "fig2-local-memory-avf" || len(doc.Tables) != 1 || doc.Tables[0].Structure != gpu.LocalMemory {
		t.Fatalf("figure document: %+v", doc)
	}
}

// TestFigureFlagsMatchSpecFile is the one-path contract: a canned figure
// narrowed by the figure flags prints exactly the bytes of a -spec run
// over a file holding experiment.Figure(N) with the same axes, budget
// and seed.
func TestFigureFlagsMatchSpecFile(t *testing.T) {
	for n := 1; n <= 3; n++ {
		spec, err := experiment.Figure(n)
		if err != nil {
			t.Fatal(err)
		}
		spec.Chips = []string{"Mini NVIDIA", "Mini AMD"}
		spec.Benchmarks = []string{"reduction", "matrixMul"}
		spec.Injections, spec.Seed = 25, 6
		file, err := spec.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		path := writeMiniSpec(t, string(file))

		var fromFlags, fromFile, errOut strings.Builder
		args := []string{"-fig", strconv.Itoa(n), "-chips", "Mini NVIDIA, Mini AMD", "-bench", "reduction,matrixMul", "-n", "25", "-seed", "6", "-json"}
		if err := run(context.Background(), args, &fromFlags, &errOut); err != nil {
			t.Fatal(err)
		}
		if err := run(context.Background(), []string{"-spec", path, "-json"}, &fromFile, &errOut); err != nil {
			t.Fatal(err)
		}
		if fromFlags.String() != fromFile.String() {
			t.Fatalf("fig %d: -fig and -spec outputs differ:\n%s\nvs\n%s", n, fromFlags.String(), fromFile.String())
		}
	}
}

// TestFiguresShareOneScheduler: -fig all runs its three specs on one
// scheduler, so Fig. 3 re-executes nothing Figs. 1 and 2 measured.
func TestFiguresShareOneScheduler(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{"-fig", "all", "-chips", "Mini NVIDIA", "-bench", "reduction", "-n", "10"}
	if err := run(context.Background(), args, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	// One benchmark on one chip: a register-file and a local-memory
	// cell, each run once; Fig. 3 is served both from the store.
	if !strings.Contains(errOut.String(), `msg="campaigns done" runs=2 injections=20 cached=2 `) {
		t.Fatalf("campaign summary:\n%s", errOut.String())
	}
	for _, want := range []string{"fig1-register-file-avf", "fig2-local-memory-avf", "fig3-epf — Executions per Failure"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-ladder-dir", "ladders"}, // retired: ladders live in the heap only
		{"-fig", "9"},
		{"-chips", "No Such GPU"},
		{"-bench", "nope"},
		{"-margin", "1.5"},
		{"-confidence", "0"},
	} {
		var out, errOut strings.Builder
		if err := run(context.Background(), args, &out, &errOut); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunHelpIsNotAnError(t *testing.T) {
	var out, errOut strings.Builder
	if err := run(context.Background(), []string{"-h"}, &out, &errOut); err != nil {
		t.Fatalf("-h returned %v", err)
	}
	if !strings.Contains(errOut.String(), "-fig") {
		t.Fatalf("usage text missing:\n%s", errOut.String())
	}
}

// writeMiniSpec writes a small experiment spec to a temp file.
func writeMiniSpec(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const miniProtectionSpec = `{
	"version": 1,
	"name": "mini-protection",
	"chips": ["Mini NVIDIA"],
	"benchmarks": ["matrixMul"],
	"structures": ["register-file", "local-memory"],
	"estimator": "fi",
	"injections": 200,
	"seed": 31,
	"metrics": {
		"epf": true,
		"protection": [
			{"name": "unprotected"},
			{"name": "parity-rf", "schemes": [{"structure": "register-file", "scheme": "parity"}]}
		]
	}
}`

// TestCommittedSpecsCompile: every spec committed under examples/, which
// the docs and CI run verbatim through -spec, decodes strictly and
// compiles — without running a cell. The same bytes with one unknown
// field must be refused, so a field the schema drops fails here.
func TestCommittedSpecsCompile(t *testing.T) {
	var paths []string
	err := filepath.WalkDir(filepath.Join("..", "..", "examples"), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".json" {
			paths = append(paths, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed specs under examples/")
	}
	for _, path := range paths {
		body, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := experiment.ParseBytes(body)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if _, err := spec.Compile(); err != nil {
			t.Errorf("%s: %v", path, err)
		}
		typo := append([]byte(`{"unknown_field": 1, `), bytes.TrimPrefix(bytes.TrimSpace(body), []byte("{"))...)
		if _, err := experiment.ParseBytes(typo); err == nil {
			t.Errorf("%s: a spec with an unknown field was accepted", path)
		}
	}
}

// TestRunSpecFile: the protection what-if sweep — a scenario the figure
// flags cannot express — runs from a JSON spec via -spec, and explicit
// campaign flags override the file.
func TestRunSpecFile(t *testing.T) {
	path := writeMiniSpec(t, miniProtectionSpec)
	var out, errOut strings.Builder
	if err := run(context.Background(), []string{"-spec", path, "-n", "40"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"mini-protection", "Executions per Failure", "protection what-ifs", "unprotected", "parity-rf", "40 injections/campaign"} {
		if !strings.Contains(text, want) {
			t.Fatalf("spec output missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(errOut.String(), `msg="cell done" done=2 total=2`) {
		t.Fatalf("progress lines missing:\n%s", errOut.String())
	}
}

func TestRunSpecFileJSON(t *testing.T) {
	path := writeMiniSpec(t, miniProtectionSpec)
	var out, errOut strings.Builder
	if err := run(context.Background(), []string{"-spec", path, "-n", "30", "-json"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spec struct {
			Name       string `json:"name"`
			Injections int    `json:"injections"`
		} `json:"spec"`
		Tables     []json.RawMessage `json:"tables"`
		Protection []json.RawMessage `json:"protection"`
	}
	if err := json.NewDecoder(strings.NewReader(out.String())).Decode(&doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if doc.Spec.Name != "mini-protection" || doc.Spec.Injections != 30 {
		t.Fatalf("spec echo wrong: %+v", doc.Spec)
	}
	if len(doc.Tables) != 2 || len(doc.Protection) != 2 {
		t.Fatalf("result shape: %d tables, %d protection rows", len(doc.Tables), len(doc.Protection))
	}
}

// TestRunFigureOnServer: -fig N -server is the operator's way to run a
// canned figure on a fiserver, and prints what the local run prints.
func TestRunFigureOnServer(t *testing.T) {
	sched := campaign.New(campaign.Config{})
	ts := httptest.NewServer(service.NewServer(sched))
	defer ts.Close()

	args := []string{"-fig", "3", "-chips", "Mini AMD", "-bench", "reduction", "-n", "20", "-seed", "2", "-json"}
	var local, remote, errOut strings.Builder
	if err := run(context.Background(), args, &local, &errOut); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), append(args, "-server", ts.URL), &remote, &errOut); err != nil {
		t.Fatal(err)
	}
	if remote.String() != local.String() {
		t.Fatalf("figure differs between fiserver and local run:\n%s\nvs\n%s", remote.String(), local.String())
	}
	if sched.Stats().Runs != 2 {
		t.Fatalf("server scheduler executed %d campaigns, want 2", sched.Stats().Runs)
	}
}

// TestRunSpecOnServer drives -spec -server against a live fiserver.
func TestRunSpecOnServer(t *testing.T) {
	sched := campaign.New(campaign.Config{})
	ts := httptest.NewServer(service.NewServer(sched))
	defer ts.Close()

	path := writeMiniSpec(t, miniProtectionSpec)
	var out, errOut strings.Builder
	if err := run(context.Background(), []string{"-spec", path, "-n", "40", "-server", ts.URL}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "protection what-ifs") {
		t.Fatalf("remote spec output:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "job=exp-") {
		t.Fatalf("job line missing:\n%s", errOut.String())
	}
	if sched.Stats().Runs == 0 {
		t.Fatal("server scheduler never executed a campaign")
	}
}

func TestRunSpecErrors(t *testing.T) {
	badSpec := writeMiniSpec(t, `{"version": 1, "injctions": 5}`)
	for _, args := range [][]string{
		{"-spec", "/no/such/file.json"},
		{"-spec", badSpec},
	} {
		var out, errOut strings.Builder
		if err := run(context.Background(), args, &out, &errOut); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunSpecServerRejectsLocalFlags: -store and -workers configure the
// local scheduler and must not be silently dropped on remote runs.
func TestRunSpecServerRejectsLocalFlags(t *testing.T) {
	path := writeMiniSpec(t, miniProtectionSpec)
	for _, args := range [][]string{
		{"-spec", path, "-server", "http://localhost:1", "-store", "/tmp/x.jsonl"},
		{"-spec", path, "-server", "http://localhost:1", "-workers", "4"},
	} {
		var out, errOut strings.Builder
		err := run(context.Background(), args, &out, &errOut)
		if err == nil || !strings.Contains(err.Error(), "local-only") {
			t.Errorf("args %v: err %v, want local-only rejection", args, err)
		}
	}
}
