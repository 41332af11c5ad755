// Package campaign is the orchestration layer over the fault-injection
// engine: content-addressed identities for campaign cells, pluggable
// result stores (in-memory LRU and JSON-lines disk), and a deduplicating,
// cancelable scheduler that shares golden reference runs across
// structures. It turns "run a figure" into "schedule, cache and serve
// campaign cells": identical cells are computed once ever, concurrent
// duplicate submissions coalesce onto one execution, and the experiment
// runner (internal/experiment), the CLI tools and the fiserver front-end
// all draw from the same store.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/chips"
	"repro/internal/finject"
	"repro/internal/gpu"
	"repro/internal/workloads"
)

// CellSpec is the canonical, value-typed identity of one campaign cell:
// every parameter that determines the campaign's result, and nothing that
// does not (worker counts, detail flags and shared goldens change neither
// outcomes nor statistics).
type CellSpec struct {
	Chip       string        `json:"chip"`
	Benchmark  string        `json:"benchmark"`
	Structure  gpu.Structure `json:"structure"`
	Injections int           `json:"injections"`
	Seed       uint64        `json:"seed"`
	// FaultWidth is the burst width in adjacent bits (1 = the paper's
	// single-bit model).
	FaultWidth uint `json:"fault_width"`
	// WatchdogFactor is the hang threshold as a multiple of the golden
	// cycle count.
	WatchdogFactor int `json:"watchdog_factor"`
	// CheckpointOff and CheckpointInterval carry the checkpointed
	// fast-forward knob (finject.Checkpoint) across process boundaries.
	// They are execution hints only: checkpointing never changes a
	// cell's result, so both stay out of Key() — cells that differ only
	// here share one key and one stored result, and specs written before
	// the knob existed keep their keys and warm stores.
	CheckpointOff      bool  `json:"checkpoint_off,omitempty"`
	CheckpointInterval int64 `json:"checkpoint_interval,omitempty"`
	// GoldenOnly marks a cell that runs only the reference run
	// (finject.Campaign.GoldenOnly): the ACE estimator's cell. Nothing
	// but the chip, the benchmark and the structure decides its result,
	// so Normalize resets every other field, and its key stands apart
	// from every FI cell's.
	GoldenOnly bool `json:"golden_only,omitempty"`
}

// CheckpointPolicy returns the spec's checkpoint knob in engine form.
func (s CellSpec) CheckpointPolicy() finject.Checkpoint {
	return finject.Checkpoint{Off: s.CheckpointOff, Interval: s.CheckpointInterval}
}

// Config returns the spec's execution configuration in the engine's
// versioned form — the construction path Campaign() goes through.
func (s CellSpec) Config() finject.Config {
	ck := s.CheckpointPolicy()
	return finject.Config{Version: finject.ConfigVersion, Seed: s.Seed, Checkpoint: &ck}
}

// Normalize resolves defaulted fields so that specs describing the same
// campaign compare and hash equal no matter how they were written.
func (s CellSpec) Normalize() CellSpec {
	if s.GoldenOnly {
		s = CellSpec{Chip: s.Chip, Benchmark: s.Benchmark, Structure: s.Structure, GoldenOnly: true}
	} else if s.Injections <= 0 {
		s.Injections = finject.DefaultInjections
	}
	if s.FaultWidth < 2 {
		s.FaultWidth = 1
	}
	if s.WatchdogFactor <= 0 {
		s.WatchdogFactor = finject.DefaultWatchdogFactor
	}
	return s
}

// SpecOf derives the cell identity of a campaign. The campaign must carry
// a chip and a benchmark. The injection count recorded is the campaign's
// cap (Policy.MaxInjections when set): an adaptive policy's Margin and
// Confidence are a stopping rule, not part of the fault sample, so they
// stay out of the identity — the scheduler instead checks whether a
// cached cell's realized sample satisfies the requesting policy.
func SpecOf(c finject.Campaign) CellSpec {
	ck := c.Policy.Knob()
	s := CellSpec{
		Injections:         c.Policy.Cap(c.Injections),
		Seed:               c.Seed,
		FaultWidth:         c.FaultWidth,
		WatchdogFactor:     c.WatchdogFactor,
		CheckpointOff:      ck.Off,
		CheckpointInterval: ck.Interval,
		GoldenOnly:         c.GoldenOnly,
	}
	if c.Chip != nil {
		s.Chip = c.Chip.Name
	}
	if c.Benchmark != nil {
		s.Benchmark = c.Benchmark.Name
	}
	s.Structure = c.Structure
	return s.Normalize()
}

// Campaign resolves the spec back into a runnable campaign, looking the
// chip and benchmark up by name.
func (s CellSpec) Campaign() (finject.Campaign, error) {
	s = s.Normalize()
	if s.CheckpointInterval < 0 {
		return finject.Campaign{}, fmt.Errorf("campaign: negative checkpoint interval %d", s.CheckpointInterval)
	}
	chip, err := chips.ByName(s.Chip)
	if err != nil {
		return finject.Campaign{}, err
	}
	bench, err := workloads.ByName(s.Benchmark)
	if err != nil {
		return finject.Campaign{}, err
	}
	c := finject.Campaign{
		Chip:           chip,
		Benchmark:      bench,
		Structure:      s.Structure,
		Injections:     s.Injections,
		Seed:           s.Seed,
		FaultWidth:     s.FaultWidth,
		WatchdogFactor: s.WatchdogFactor,
		GoldenOnly:     s.GoldenOnly,
	}
	s.Config().ApplyTo(&c)
	return c, nil
}

// String renders the spec for logs and progress lines.
func (s CellSpec) String() string {
	s = s.Normalize()
	return fmt.Sprintf("%s/%s/%s n=%d seed=%d", s.Chip, s.Benchmark, s.Structure, s.Injections, s.Seed)
}

// CellKey is the content-addressed digest of a normalized CellSpec: a
// stable identity usable as a map key, an on-disk record key and a wire
// handle. Equal campaigns produce equal keys; any parameter change that
// could alter the result produces a different key.
type CellKey string

// Key hashes the normalized spec. A golden-only cell appends a marker,
// so no FI cell's key moves.
func (s CellSpec) Key() CellKey {
	s = s.Normalize()
	h := sha256.New()
	fmt.Fprintf(h, "cell|%q|%q|%d|%d|%d|%d|%d",
		s.Chip, s.Benchmark, s.Structure, s.Injections, s.Seed, s.FaultWidth, s.WatchdogFactor)
	if s.GoldenOnly {
		fmt.Fprint(h, "|golden-only")
	}
	return CellKey(hex.EncodeToString(h.Sum(nil)))
}
