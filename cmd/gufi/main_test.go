package main

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var out, errOut strings.Builder
	if err := run(context.Background(), []string{"-list"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"GeForce GTX 480", "benchmarks:", "vectoradd"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("list output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunTinyCampaign(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{"-chip", "Mini NVIDIA", "-bench", "vectoradd", "-n", "25", "-seed", "3"}
	if err := run(context.Background(), args, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"gufi campaign: Mini NVIDIA / vectoradd", "AVF (FI)", "masked="} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("campaign output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunAdaptiveCampaign(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{"-chip", "Mini NVIDIA", "-bench", "vectoradd", "-n", "2000", "-margin", "0.1"}
	if err := run(context.Background(), args, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "adaptive") || strings.Contains(out.String(), "injections        2000 of cap") {
		t.Fatalf("adaptive campaign should stop below the cap:\n%s", out.String())
	}
}

// TestRunFlagErrors: every bad invocation fails, and its error reaches
// stderr exactly once — a flag error as the FlagSet reports it, any
// other as "gufi: ...".
func TestRunFlagErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-no-such-flag"}, "flag provided but not defined: -no-such-flag"},
		{[]string{"-ladder-dir", "ladders"}, "flag provided but not defined: -ladder-dir"}, // retired
		{[]string{"-chip", "No Such GPU"}, `gufi: chips: unknown chip "No Such GPU"`},
		{[]string{"-chip", "HD Radeon 7970"}, "gufi: chip HD Radeon 7970 is a"}, // AMD part under the NVIDIA tool
		{[]string{"-structure", "l2cache"}, `gufi: unknown structure "l2cache"`},
		{[]string{"-margin", "5"}, "gufi: margin 5 outside [0,1)"},         // out of [0,1)
		{[]string{"-confidence", "1.01"}, "gufi: confidence 1.01 outside"}, // out of (0,1)
	} {
		var out, errOut strings.Builder
		if err := run(context.Background(), c.args, &out, &errOut); err == nil {
			t.Errorf("args %v accepted", c.args)
		}
		if n := strings.Count(errOut.String(), c.want); n != 1 {
			t.Errorf("args %v: %q on stderr %d times, want once:\n%s", c.args, c.want, n, errOut.String())
		}
	}
}

// TestRunLogsToStderr: the structured log goes to the stderr run is
// given, not to the process's.
func TestRunLogsToStderr(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{"-chip", "Mini NVIDIA", "-bench", "vectoradd", "-n", "10", "-trace", filepath.Join(t.TempDir(), "t.json")}
	if err := run(context.Background(), args, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "trace written") {
		t.Fatalf("no log line on the given stderr:\n%s", errOut.String())
	}
}

func TestRunHelpIsNotAnError(t *testing.T) {
	var out, errOut strings.Builder
	if err := run(context.Background(), []string{"-h"}, &out, &errOut); err != nil {
		t.Fatalf("-h returned %v", err)
	}
}
