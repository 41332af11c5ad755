package finject

import "fmt"

// ConfigVersion is the current schema version of Config. Version 0 on
// the wire normalizes to it; any other version is rejected so a future
// v2 can change field semantics without silently misreading v1 blocks.
const ConfigVersion = 1

// Config is the engine's one execution-policy type: stopping rule,
// injection cap, worker count and checkpoint knob in a single
// versioned, JSON-serializable block. A campaign carries it as
// Campaign.Policy, and every producer — campaign cell specs, experiment
// spec policy blocks, the /v1/jobs policy body and the lease wire —
// compiles to it. A policy never changes which fault injection #i draws
// — that is fixed by (Campaign.Seed, i) — so two policies that end up
// running the same number of injections produce bit-identical results.
//
// Zero values mean "default" everywhere. A nil Checkpoint is the default
// ladder to the engine, and "keep the campaign's own knob" to Policy
// (the presence distinction the job policy block has always had).
type Config struct {
	// Version is the schema version (0 normalizes to ConfigVersion).
	Version int `json:"v,omitempty"`
	// Workers bounds the parallel device replicas of one campaign
	// (GOMAXPROCS when 0). Execution-only: never part of cell identity.
	Workers int `json:"workers,omitempty"`
	// Margin, when > 0, enables adaptive sampling: injections run in
	// deterministic rounds and the campaign stops at the end of the first
	// round whose Wilson interval half-width is at most Margin at the
	// policy's confidence level, or at the cap.
	Margin float64 `json:"margin,omitempty"`
	// Confidence is the stopping rule's level (DefaultConfidence when 0).
	Confidence float64 `json:"confidence,omitempty"`
	// MaxInjections caps the campaign when > 0; when 0 the cap is
	// Campaign.Injections (DefaultInjections when that is also 0).
	MaxInjections int `json:"max_injections,omitempty"`
	// Checkpoint configures checkpointed fast-forward execution (see
	// checkpoint.go). It is an execution knob only and never changes
	// results.
	Checkpoint *Checkpoint `json:"checkpoint,omitempty"`
}

// Normalize validates the config and resolves its version. Error text
// is part of the HTTP API (the /v1/jobs policy validation) — change it
// only with the corresponding compat tests.
func (c Config) Normalize() (Config, error) {
	if c.Version == 0 {
		c.Version = ConfigVersion
	}
	if c.Version != ConfigVersion {
		return c, fmt.Errorf("bad policy version %d (want %d)", c.Version, ConfigVersion)
	}
	if c.Margin < 0 || c.Margin >= 1 {
		return c, fmt.Errorf("bad policy margin %v (want [0,1))", c.Margin)
	}
	if c.Confidence < 0 || c.Confidence >= 1 {
		return c, fmt.Errorf("bad policy confidence %v (want [0,1))", c.Confidence)
	}
	if c.MaxInjections < 0 {
		return c, fmt.Errorf("bad policy max_injections %d", c.MaxInjections)
	}
	if c.Workers < 0 {
		return c, fmt.Errorf("bad policy workers %d", c.Workers)
	}
	return c, nil
}

// Equal reports whether two configs describe the same execution
// configuration (checkpoint compared by value, not pointer).
func (c Config) Equal(o Config) bool {
	if c.Version != o.Version || c.Workers != o.Workers ||
		c.Margin != o.Margin || c.Confidence != o.Confidence ||
		c.MaxInjections != o.MaxInjections {
		return false
	}
	switch {
	case c.Checkpoint == nil && o.Checkpoint == nil:
		return true
	case c.Checkpoint == nil || o.Checkpoint == nil:
		return false
	default:
		return *c.Checkpoint == *o.Checkpoint
	}
}

// Knob resolves the checkpoint knob: the zero Checkpoint (on) when
// unset.
func (c Config) Knob() Checkpoint {
	if c.Checkpoint == nil {
		return Checkpoint{}
	}
	return *c.Checkpoint
}

// Adaptive reports whether the policy requests adaptive sampling.
func (c Config) Adaptive() bool { return c.Margin > 0 }

// Cap resolves the campaign's injection budget against the campaign's
// own Injections field: MaxInjections wins, then injections, then
// DefaultInjections.
func (c Config) Cap(injections int) int {
	if c.MaxInjections > 0 {
		return c.MaxInjections
	}
	if injections > 0 {
		return injections
	}
	return DefaultInjections
}

// confidence resolves the stopping rule's confidence level.
func (c Config) confidence() float64 {
	if c.Confidence <= 0 || c.Confidence >= 1 {
		return DefaultConfidence
	}
	return c.Confidence
}

// SatisfiedBy reports whether an existing result already answers a
// request for this policy with the given cap: a fixed-size request needs
// the full cap, while an adaptive request also accepts any result whose
// interval half-width is within the margin. This is what lets a cached
// cell measured at a tighter margin serve looser requests without
// re-running.
func (c Config) SatisfiedBy(res *Result, limit int) bool {
	if res == nil {
		return false
	}
	if res.Injections >= limit {
		return true
	}
	if !c.Adaptive() {
		return false
	}
	hw, err := res.HalfWidth(c.confidence())
	return err == nil && hw <= c.Margin
}

// Policy returns the config as a campaign's execution policy: the
// checkpoint knob is base when the config leaves it unset.
func (c Config) Policy(base Checkpoint) Config {
	if c.Checkpoint == nil {
		c.Checkpoint = &base
	}
	return c
}
