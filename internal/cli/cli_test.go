package cli

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gpu"
)

// Run runs a tool invocation under a background context, discarding its
// logs.
func Run(tool string, vendor gpu.Vendor, args []string, w io.Writer) error {
	return RunContext(context.Background(), tool, vendor, args, w, io.Discard)
}

func TestRunList(t *testing.T) {
	var sb strings.Builder
	if err := Run("gufi", gpu.NVIDIA, []string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Quadro FX 5600", "GeForce GTX 480", "matrixMul", "vectoradd", "uses local memory"} {
		if !strings.Contains(out, want) {
			t.Fatalf("list output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "Radeon") {
		t.Fatal("gufi listed an AMD chip")
	}
}

func TestRunCampaign(t *testing.T) {
	var sb strings.Builder
	err := Run("sifi", gpu.AMD, []string{"-bench", "vectoradd", "-n", "40", "-seed", "5"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"HD Radeon 7970", "AVF (FI)", "AVF (ACE)", "occupancy", "masked="} {
		if !strings.Contains(out, want) {
			t.Fatalf("campaign output missing %q:\n%s", want, out)
		}
	}
}

func TestRunWithStore(t *testing.T) {
	store := filepath.Join(t.TempDir(), "cells.jsonl")
	args := []string{"-bench", "vectoradd", "-n", "30", "-seed", "8", "-store", store}

	var cold strings.Builder
	if err := Run("gufi", gpu.NVIDIA, args, &cold); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cold.String(), "hits=0 runs=1") {
		t.Fatalf("cold run should execute the campaign:\n%s", cold.String())
	}

	var warm strings.Builder
	if err := Run("gufi", gpu.NVIDIA, args, &warm); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm.String(), "hits=1 runs=0") {
		t.Fatalf("warm run should be served from the store:\n%s", warm.String())
	}
	// The numbers must match between cold and warm runs.
	extract := func(out, label string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, label) {
				return line
			}
		}
		t.Fatalf("no %q line in:\n%s", label, out)
		return ""
	}
	if extract(cold.String(), "AVF (FI)") != extract(warm.String(), "AVF (FI)") {
		t.Fatal("stored result differs from computed result")
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	cases := [][]string{
		{"-chip", "No Such GPU"},
		{"-chip", "HD Radeon 7970"}, // AMD chip under the NVIDIA tool
		{"-bench", "nope"},
		{"-structure", "l2cache"},
		{"-bench", "vectoradd", "-structure", "local"}, // not a local-memory benchmark
	}
	for _, args := range cases {
		if err := Run("gufi", gpu.NVIDIA, args, &sb); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func writeSpec(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunSpec: both tools run declarative specs over their own vendor's
// chips, with the shared renderer.
func TestRunSpec(t *testing.T) {
	path := writeSpec(t, `{
		"version": 1,
		"name": "nv-sweep",
		"chips": ["Mini NVIDIA"],
		"benchmarks": ["vectoradd", "transpose"],
		"estimator": "fi",
		"injections": 20,
		"seed": 3
	}`)
	var sb strings.Builder
	if err := Run("gufi", gpu.NVIDIA, []string{"-spec", path}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"nv-sweep", "register-file AVF", "vectoradd", "transpose", "average"} {
		if !strings.Contains(out, want) {
			t.Fatalf("spec output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSpecJSON(t *testing.T) {
	path := writeSpec(t, `{
		"version": 1,
		"chips": ["Mini AMD"],
		"benchmarks": ["reduction"],
		"estimator": "fi",
		"injections": 20
	}`)
	var sb strings.Builder
	if err := Run("sifi", gpu.AMD, []string{"-spec", path, "-json"}, &sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Chips []string `json:"chips"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if len(doc.Chips) != 1 || doc.Chips[0] != "Mini AMD" {
		t.Fatalf("chips: %v", doc.Chips)
	}
}

// TestRunCellJSON: -json without -spec renders the flag-built cell as the
// experiment document a one-cell spec produces, not the text report.
func TestRunCellJSON(t *testing.T) {
	var sb strings.Builder
	if err := Run("gufi", gpu.NVIDIA, []string{"-chip", "Mini NVIDIA", "-n", "20", "-json"}, &sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Chips  []string `json:"chips"`
		Tables []struct {
			Cells [][]struct {
				Benchmark  string `json:"benchmark"`
				Injections int    `json:"injections"`
			} `json:"cells"`
		} `json:"tables"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if len(doc.Chips) != 1 || doc.Chips[0] != "Mini NVIDIA" || len(doc.Tables) != 1 ||
		doc.Tables[0].Cells[0][0].Benchmark != "vectoradd" || doc.Tables[0].Cells[0][0].Injections != 20 {
		t.Fatalf("not the flag-built cell:\n%s", sb.String())
	}
}

// TestRunSpecVendorGate: gufi refuses AMD chips in specs, exactly as it
// does for -chip.
func TestRunSpecVendorGate(t *testing.T) {
	path := writeSpec(t, `{
		"version": 1,
		"chips": ["HD Radeon 7970"],
		"benchmarks": ["vectoradd"],
		"injections": 10
	}`)
	var sb strings.Builder
	err := Run("gufi", gpu.NVIDIA, []string{"-spec", path}, &sb)
	if err == nil || !strings.Contains(err.Error(), "use the other tool") {
		t.Fatalf("vendor gate missing: %v", err)
	}
}

func TestRunSpecBadFile(t *testing.T) {
	var sb strings.Builder
	if err := Run("gufi", gpu.NVIDIA, []string{"-spec", "/no/such.json"}, &sb); err == nil {
		t.Fatal("missing spec file accepted")
	}
	bad := writeSpec(t, `{"version": 1, "bogus_field": true}`)
	if err := Run("gufi", gpu.NVIDIA, []string{"-spec", bad}, &sb); err == nil {
		t.Fatal("unknown field accepted")
	}
}

// TestRunSpecDefaultsToVendorChips: a spec with no chip axis (the
// README's minimal form) must default to the tool's own vendor rather
// than normalizing to the mixed four-chip paper grid and then failing
// the vendor gate.
func TestRunSpecDefaultsToVendorChips(t *testing.T) {
	path := writeSpec(t, `{
		"version": 1,
		"benchmarks": ["vectoradd"],
		"estimator": "fi",
		"injections": 10,
		"seed": 1
	}`)
	var sb strings.Builder
	if err := Run("sifi", gpu.AMD, []string{"-spec", path}, &sb); err != nil {
		t.Fatalf("chips-less spec rejected: %v", err)
	}
	if !strings.Contains(sb.String(), "HD Radeon 7970") {
		t.Fatalf("AMD default chip missing:\n%s", sb.String())
	}
	if strings.Contains(sb.String(), "GeForce") || strings.Contains(sb.String(), "Quadro") {
		t.Fatalf("sifi ran NVIDIA chips:\n%s", sb.String())
	}
}

// TestRunSpecFlagOverride: explicitly set campaign flags override the
// file, matching cmd/figures (the documented contract).
func TestRunSpecFlagOverride(t *testing.T) {
	path := writeSpec(t, `{
		"version": 1,
		"chips": ["Mini NVIDIA"],
		"benchmarks": ["vectoradd"],
		"estimator": "fi",
		"injections": 500,
		"seed": 2
	}`)
	var sb strings.Builder
	if err := Run("gufi", gpu.NVIDIA, []string{"-spec", path, "-n", "25"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "25 injections/campaign") {
		t.Fatalf("-n did not override the spec:\n%s", sb.String())
	}
}

// TestRunSpecRejectsBadConfidence: out-of-range policy values in the
// file must be rejected, not silently defaulted.
func TestRunSpecRejectsBadConfidence(t *testing.T) {
	path := writeSpec(t, `{
		"version": 1,
		"chips": ["Mini NVIDIA"],
		"benchmarks": ["vectoradd"],
		"injections": 10,
		"policy": {"confidence": 95}
	}`)
	var sb strings.Builder
	err := Run("gufi", gpu.NVIDIA, []string{"-spec", path}, &sb)
	if err == nil || !strings.Contains(err.Error(), "confidence") {
		t.Fatalf("confidence typo accepted: %v", err)
	}
}
