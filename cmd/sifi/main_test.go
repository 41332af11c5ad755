package main

import (
	"context"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var out, errOut strings.Builder
	if err := run(context.Background(), []string{"-list"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"HD Radeon 7970", "benchmarks:", "reduction"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("list output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "GeForce") {
		t.Fatal("sifi listed an NVIDIA chip")
	}
}

func TestRunTinyCampaign(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{"-chip", "Mini AMD", "-bench", "vectoradd", "-n", "25", "-seed", "3"}
	if err := run(context.Background(), args, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sifi campaign: Mini AMD / vectoradd", "AVF (FI)", "masked="} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("campaign output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunFlagErrors: every bad invocation fails, and its error reaches
// stderr exactly once.
func TestRunFlagErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-no-such-flag"}, "flag provided but not defined: -no-such-flag"},
		{[]string{"-ladder-dir", "ladders"}, "flag provided but not defined: -ladder-dir"}, // retired
		{[]string{"-chip", "GeForce GTX 480"}, "sifi: chip GeForce GTX 480 is a"},          // NVIDIA part under the AMD tool
		{[]string{"-bench", "nope"}, `sifi: workloads: unknown benchmark "nope"`},
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
