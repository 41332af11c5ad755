package cli

import (
	"bytes"
	"flag"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/finject"
)

// TestPolicyFlagsHelpGolden pins the -h output of the shared policy
// flag block byte for byte. gufi, sifi and figures all print exactly
// this text (plus their tool-specific flags), so a change here is a
// user-visible CLI change across all three tools at once — update the
// golden deliberately, not incidentally.
func TestPolicyFlagsHelpGolden(t *testing.T) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	AddPolicyFlags(fs)
	fs.PrintDefaults()

	const golden = `  -checkpoint string
    	checkpointed fast-forward: auto, off, or a snapshot interval in cycles (default "auto")
  -confidence float
    	confidence level for AVF intervals and adaptive stopping (default 0.99)
  -margin float
    	adaptive mode: stop each campaign once the AVF interval half-width reaches this (0 = run exactly -n injections)
  -n int
    	fault injections per campaign (the cap when -margin is set) (default 2000)
  -workers int
    	parallel simulations per campaign (default GOMAXPROCS)
`
	if got := buf.String(); got != golden {
		t.Errorf("policy flag help changed:\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
}

func TestPolicyFlagsValidate(t *testing.T) {
	parse := func(t *testing.T, args ...string) (*PolicyFlags, error) {
		t.Helper()
		fs := flag.NewFlagSet("tool", flag.ContinueOnError)
		fs.SetOutput(&bytes.Buffer{})
		p := AddPolicyFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return p, p.Validate()
	}

	if _, err := parse(t); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if _, err := parse(t, "-margin", "1.5"); err == nil || !strings.Contains(err.Error(), "margin") {
		t.Errorf("margin 1.5 accepted (err=%v)", err)
	}
	if _, err := parse(t, "-confidence", "0"); err == nil || !strings.Contains(err.Error(), "confidence") {
		t.Errorf("confidence 0 accepted (err=%v)", err)
	}
	if _, err := parse(t, "-workers", "-3"); err == nil || !strings.Contains(err.Error(), "workers") {
		t.Errorf("workers -3 accepted (err=%v)", err)
	}
	if _, err := parse(t, "-checkpoint", "sometimes"); err == nil {
		t.Error("bad -checkpoint accepted")
	}

	p, err := parse(t, "-checkpoint", "128")
	if err != nil {
		t.Fatal(err)
	}
	if ck := p.Checkpoint(); ck.Off || ck.Interval != 128 {
		t.Errorf("-checkpoint 128 parsed to %+v", ck)
	}
}

func TestPolicyFlagsSpecPolicy(t *testing.T) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	p := AddPolicyFlags(fs)
	if err := fs.Parse([]string{"-margin", "0.05", "-confidence", "0.9"}); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	pol := p.SpecPolicy()
	if pol.Margin != 0.05 || pol.Confidence != 0.9 {
		t.Errorf("SpecPolicy = %+v", pol)
	}
	// An "auto" checkpoint must stay nil so specs keep their own default.
	if pol.Checkpoint != nil {
		t.Errorf("auto checkpoint produced explicit spec knob %+v", *pol.Checkpoint)
	}

	fs = flag.NewFlagSet("tool", flag.ContinueOnError)
	p = AddPolicyFlags(fs)
	if err := fs.Parse([]string{"-checkpoint", "off"}); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if pol := p.SpecPolicy(); pol.Checkpoint == nil || !pol.Checkpoint.Off {
		t.Errorf("-checkpoint off lost: %+v", pol.Checkpoint)
	}
}

func TestPolicyFlagsOverride(t *testing.T) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	p := AddPolicyFlags(fs)
	if err := fs.Parse([]string{"-n", "100", "-margin", "0.02", "-checkpoint", "64"}); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}

	spec := experiment.Spec{Injections: 2000, Seed: 9, Policy: experiment.Policy{Margin: 0.5}}
	overridden := map[string]bool{}
	fs.Visit(func(fl *flag.Flag) { overridden[fl.Name] = p.override(fl.Name, &spec) })

	if !overridden["n"] || !overridden["margin"] || !overridden["checkpoint"] {
		t.Fatalf("policy flags not claimed by override: %v", overridden)
	}
	if spec.Injections != 100 || spec.Policy.Margin != 0.02 {
		t.Errorf("overrides not applied: %+v", spec)
	}
	if spec.Policy.Checkpoint == nil || *spec.Policy.Checkpoint != (finject.Checkpoint{Interval: 64}) {
		t.Errorf("checkpoint override not applied: %+v", spec.Policy.Checkpoint)
	}
	if spec.Seed != 9 {
		t.Errorf("Override touched a non-policy field: seed=%d", spec.Seed)
	}
	if p.override("seed", &spec) {
		t.Error("Override claimed -seed, which is not a policy flag")
	}
}
