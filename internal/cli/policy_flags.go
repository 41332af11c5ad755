package cli

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiment"
	"repro/internal/finject"
)

// PolicyFlags is the one shared definition of the engine-policy
// command-line knobs: -n, -workers, -margin, -confidence and
// -checkpoint. gufi, sifi and figures all register the block through
// AddPolicyFlags, so the three tools agree on names, defaults and help
// text, and a policy flag added here appears everywhere at once.
type PolicyFlags struct {
	// N is the injection count (the cap when Margin is set).
	N int
	// Workers bounds parallel device replicas per campaign (0 =
	// GOMAXPROCS).
	Workers int
	// Margin > 0 turns on adaptive sampling.
	Margin float64
	// Confidence is the interval and stopping-rule level.
	Confidence float64
	// CheckpointRaw is the unparsed -checkpoint value; Validate resolves
	// it into Checkpoint().
	CheckpointRaw string

	ckpt finject.Checkpoint
}

// AddPolicyFlags registers the shared policy flag block on fs and
// returns the destination struct. Call Validate after fs.Parse.
func AddPolicyFlags(fs *flag.FlagSet) *PolicyFlags {
	p := &PolicyFlags{}
	fs.IntVar(&p.N, "n", finject.DefaultInjections, "fault injections per campaign (the cap when -margin is set)")
	fs.IntVar(&p.Workers, "workers", 0, "parallel simulations per campaign (default GOMAXPROCS)")
	fs.Float64Var(&p.Margin, "margin", 0, "adaptive mode: stop each campaign once the AVF interval half-width reaches this (0 = run exactly -n injections)")
	fs.Float64Var(&p.Confidence, "confidence", finject.DefaultConfidence, "confidence level for AVF intervals and adaptive stopping")
	fs.StringVar(&p.CheckpointRaw, "checkpoint", "auto", "checkpointed fast-forward: auto, off, or a snapshot interval in cycles")
	return p
}

// Validate range-checks the parsed values and resolves -checkpoint.
func (p *PolicyFlags) Validate() error {
	if p.Workers < 0 {
		return fmt.Errorf("workers %d below 0", p.Workers)
	}
	if p.Margin < 0 || p.Margin >= 1 {
		return fmt.Errorf("margin %v outside [0,1)", p.Margin)
	}
	if p.Confidence <= 0 || p.Confidence >= 1 {
		return fmt.Errorf("confidence %v outside (0,1)", p.Confidence)
	}
	ck, err := finject.ParseCheckpoint(p.CheckpointRaw)
	if err != nil {
		return err
	}
	p.ckpt = ck
	return nil
}

// Checkpoint returns the parsed -checkpoint knob. Valid after Validate.
func (p *PolicyFlags) Checkpoint() finject.Checkpoint { return p.ckpt }

// SpecPolicy compiles the flags into an experiment-spec policy block; an
// "auto" checkpoint stays nil so the spec keeps its own default.
func (p *PolicyFlags) SpecPolicy() experiment.Policy {
	pol := experiment.Policy{Margin: p.Margin, Confidence: p.Confidence}
	if p.ckpt != (finject.Checkpoint{}) {
		ck := p.ckpt
		pol.Checkpoint = &ck
	}
	return pol
}

// LoadSpec parses the spec file at path and lays every explicitly set
// campaign flag of fs (the policy block, plus the tool's own -seed,
// whose parsed value the caller passes) over it, so CI and quick local
// runs shrink a committed spec without editing it. The grid axes always
// come from the file, and nothing is normalized: the runner's Validate
// must see the file's own values so out-of-range typos are rejected,
// not defaulted.
func (p *PolicyFlags) LoadSpec(fs *flag.FlagSet, path string, seed uint64) (experiment.Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return experiment.Spec{}, err
	}
	defer f.Close()
	spec, err := experiment.Parse(f)
	if err != nil {
		return experiment.Spec{}, err
	}
	fs.Visit(func(fl *flag.Flag) {
		if !p.override(fl.Name, &spec) && fl.Name == "seed" {
			spec.Seed = seed
		}
	})
	return spec, nil
}

// override applies one explicitly-set flag onto a parsed spec file and
// reports whether the flag belonged to the policy block.
func (p *PolicyFlags) override(name string, spec *experiment.Spec) bool {
	switch name {
	case "n":
		spec.Injections = p.N
	case "margin":
		spec.Policy.Margin = p.Margin
	case "confidence":
		spec.Policy.Confidence = p.Confidence
	case "checkpoint":
		ck := p.ckpt
		spec.Policy.Checkpoint = &ck
	default:
		return false
	}
	return true
}
