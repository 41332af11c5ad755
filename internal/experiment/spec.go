// Package experiment turns the paper's evaluation into data: a
// versioned, JSON-serializable Spec describes a whole experiment — the
// grid of chips x benchmarks x structures, the estimator (fault
// injection, ACE analysis or both), the injection policy and the derived
// metrics (AVF always; FIT, EPF and protection what-ifs on request) —
// and a Runner compiles it into campaign cells and executes it over any
// campaign.Scheduler tier (in-process, disk-backed or a remote worker
// fleet).
//
// The three paper figures are canned specs (Figure); every other
// scenario — occupancy sweeps, protection what-ifs, cross-estimator
// comparisons — is a JSON file, not new Go code. Cell identity is minted
// in one place (campaignFor), so a store warmed by any spec serves every
// other spec that touches the same cells.
package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/campaign"
	"repro/internal/chips"
	"repro/internal/finject"
	"repro/internal/gpu"
	"repro/internal/protect"
	"repro/internal/workloads"
)

// Version is the current spec schema version. Specs with version 0 are
// normalized to it; any other version is rejected, so a future v2 can
// change field semantics without silently misreading v1 files.
const Version = 1

// Estimator selects the reliability methodology a spec runs.
type Estimator string

// The supported estimators.
const (
	// EstimatorFI runs statistical fault-injection campaigns only.
	EstimatorFI Estimator = "fi"
	// EstimatorACE runs the single-pass ACE lifetime analysis only: every
	// cell is a golden-only campaign.
	EstimatorACE Estimator = "ace"
	// EstimatorBoth runs both methodologies per cell (the figures'
	// configuration).
	EstimatorBoth Estimator = "both"
)

// fi and ace report whether the estimator includes each methodology.
func (e Estimator) fi() bool  { return e == EstimatorFI || e == EstimatorBoth }
func (e Estimator) ace() bool { return e == EstimatorACE || e == EstimatorBoth }

// Policy is the spec's injection policy: the subset of finject.Config a
// spec may set, decoded strictly. Worker counts, caps and seeds are
// deliberately absent — they belong to the executing tier or to the spec
// itself, never to its policy block.
type Policy struct {
	// Margin > 0 runs every campaign adaptively: injections stop once
	// the AVF Wilson-interval half-width reaches Margin at Confidence,
	// capped at the spec's injection count.
	Margin float64 `json:"margin,omitempty"`
	// Confidence is the level for AVF intervals and the adaptive
	// stopping rule (0.99 when 0).
	Confidence float64 `json:"confidence,omitempty"`
	// Checkpoint, when present, sets the checkpointed fast-forward knob
	// for every campaign of the grid: auto or off. {"off": true} forces
	// full replay per injection; omitted (the v1 default, and the only
	// option in specs written before the knob existed) or {} means on,
	// with the ladder the golden run sizes. The knob never affects
	// results, so it stays out of cell identity: specs that differ only
	// here compile to the same cell keys and share warm stores.
	Checkpoint *finject.Checkpoint `json:"checkpoint,omitempty"`
}

// Config lowers the spec policy block into the engine's versioned
// execution configuration. The seed is per-cell (CellSeed), so callers
// stamp it before applying.
func (p Policy) Config() finject.Config {
	return finject.Config{
		Version:    finject.ConfigVersion,
		Margin:     p.Margin,
		Confidence: p.Confidence,
		Checkpoint: p.Checkpoint,
	}
}

// Protection is one what-if configuration of the protection sweep: a
// named set of per-structure schemes evaluated against the measured
// cells. An empty scheme list is the unprotected baseline.
type Protection struct {
	Name    string           `json:"name"`
	Schemes []protect.Config `json:"schemes,omitempty"`
}

// Metrics selects the derived metrics beyond the always-produced AVF
// tables.
type Metrics struct {
	// FIT adds per-cell FIT rates (AVF x structure size x raw rate).
	FIT bool `json:"fit,omitempty"`
	// EPF adds the executions-per-failure table (Fig. 3's metric),
	// combining every structure of the grid into FIT_GPU.
	EPF bool `json:"epf,omitempty"`
	// RawFITPerMbit is the raw soft-error rate entering FIT and EPF
	// (metrics.DefaultRawFITPerMbit when 0).
	RawFITPerMbit float64 `json:"raw_fit_per_mbit,omitempty"`
	// Protection evaluates EPF/FIT what-ifs under the named protection
	// configurations (requires the FI estimator for the SDC/DUE split).
	Protection []Protection `json:"protection,omitempty"`
}

// Spec is one versioned, declarative experiment: everything that
// determines its results and nothing that does not. The zero Spec
// normalizes to the paper's Fig. 1 grid.
type Spec struct {
	// Version is the schema version (0 normalizes to Version).
	Version int `json:"version"`
	// Name labels the experiment in reports and logs.
	Name string `json:"name,omitempty"`
	// Chips is the chip axis (the paper's four evaluated GPUs when
	// empty).
	Chips []string `json:"chips,omitempty"`
	// Benchmarks is the benchmark axis. Empty means the full suite —
	// or, when the structure axis is exactly the local memory, the
	// 7-benchmark shared-memory subset (the paper's Fig. 2 grid).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Structures is the structure axis (register file when empty).
	Structures []gpu.Structure `json:"structures,omitempty"`
	// Estimator selects the methodology ("both" when empty).
	Estimator Estimator `json:"estimator,omitempty"`
	// Injections is the per-cell fault budget (the adaptive cap when
	// Policy.Margin is set; finject.DefaultInjections when 0).
	Injections int `json:"injections,omitempty"`
	// Seed derives every cell's campaign seed; equal specs draw equal
	// fault samples.
	Seed uint64 `json:"seed,omitempty"`
	// Policy is the injection policy.
	Policy Policy `json:"policy,omitempty"`
	// Metrics selects the derived metrics.
	Metrics Metrics `json:"metrics,omitempty"`
}

// Parse strictly decodes one JSON spec: unknown fields are rejected so a
// typo (or a v2 field) cannot silently change an experiment's meaning.
func Parse(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("experiment: parse spec: %w", err)
	}
	return s, nil
}

// Normalize resolves every defaulted field, so that specs describing the
// same experiment compare equal and compile to equal cell keys no matter
// how they were written. Normalize is idempotent.
func (s Spec) Normalize() Spec {
	if s.Version == 0 {
		s.Version = Version
	}
	if s.Estimator == "" {
		s.Estimator = EstimatorBoth
	}
	if len(s.Structures) == 0 {
		s.Structures = []gpu.Structure{gpu.RegisterFile}
	}
	if len(s.Chips) == 0 {
		for _, c := range chips.Evaluated() {
			s.Chips = append(s.Chips, c.Name)
		}
	}
	if len(s.Benchmarks) == 0 {
		benches := workloads.All()
		if localOnly(s.Structures) {
			benches = workloads.LocalMemorySubset()
		}
		for _, b := range benches {
			s.Benchmarks = append(s.Benchmarks, b.Name)
		}
	}
	if s.Injections <= 0 {
		s.Injections = finject.DefaultInjections
	}
	if s.Policy.Confidence <= 0 || s.Policy.Confidence >= 1 {
		s.Policy.Confidence = finject.DefaultConfidence
	}
	if (s.Metrics.EPF || s.Metrics.FIT || len(s.Metrics.Protection) > 0) && s.Metrics.RawFITPerMbit <= 0 {
		s.Metrics.RawFITPerMbit = defaultRawFIT
	}
	return s
}

// localOnly reports whether the structure axis is exactly {LocalMemory}.
func localOnly(sts []gpu.Structure) bool {
	for _, st := range sts {
		if st != gpu.LocalMemory {
			return false
		}
	}
	return len(sts) > 0
}

// Validate normalizes the spec and checks it is runnable: a supported
// version and estimator, resolvable axes without duplicates, a legal
// policy and metric selections the estimator can serve. It returns the
// normalized spec so callers validate and resolve in one step.
func (s Spec) Validate() (Spec, error) {
	// Range checks run on the raw values, the policy's through the
	// engine's own finject.Config.Normalize: s.Normalize would silently
	// rewrite an out-of-range confidence (a likely "95 instead of
	// 0.95" typo) or a negative budget to the defaults, which is
	// exactly the silent meaning change strict parsing exists to stop.
	if _, err := s.Policy.Config().Normalize(); err != nil {
		return s, fmt.Errorf("experiment: %w", err)
	}
	if s.Injections < 0 {
		return s, fmt.Errorf("experiment: negative injections %d", s.Injections)
	}
	s = s.Normalize()
	if s.Version != Version {
		return s, fmt.Errorf("experiment: unsupported spec version %d (this build speaks v%d)", s.Version, Version)
	}
	switch s.Estimator {
	case EstimatorFI, EstimatorACE, EstimatorBoth:
	default:
		return s, fmt.Errorf("experiment: unknown estimator %q (want fi, ace or both)", s.Estimator)
	}
	if err := noDuplicates("chip", s.Chips); err != nil {
		return s, err
	}
	if err := noDuplicates("benchmark", s.Benchmarks); err != nil {
		return s, err
	}
	seenSt := make(map[gpu.Structure]bool, len(s.Structures))
	for _, st := range s.Structures {
		switch st {
		case gpu.RegisterFile, gpu.LocalMemory:
		default:
			return s, fmt.Errorf("experiment: unknown structure %v", st)
		}
		if seenSt[st] {
			return s, fmt.Errorf("experiment: duplicate structure %s", st)
		}
		seenSt[st] = true
	}
	for _, name := range s.Chips {
		if _, err := chips.ByName(name); err != nil {
			return s, fmt.Errorf("experiment: %w", err)
		}
	}
	for _, name := range s.Benchmarks {
		if _, err := workloads.ByName(name); err != nil {
			return s, fmt.Errorf("experiment: %w", err)
		}
	}
	// FIT works under any estimator (cellAVF picks the measured AVF);
	// EPF and protection consume the FI outcome splits, so they need
	// the injection campaigns.
	if s.Metrics.EPF || len(s.Metrics.Protection) > 0 {
		if !s.Estimator.fi() {
			return s, fmt.Errorf("experiment: metrics epf/protection need the fi estimator (got %q)", s.Estimator)
		}
	}
	for _, p := range s.Metrics.Protection {
		if p.Name == "" {
			return s, fmt.Errorf("experiment: protection config without a name")
		}
		seen := make(map[gpu.Structure]bool, len(p.Schemes))
		for _, sc := range p.Schemes {
			if err := sc.Validate(); err != nil {
				return s, fmt.Errorf("experiment: protection %q: %w", p.Name, err)
			}
			if !seenSt[sc.Structure] {
				return s, fmt.Errorf("experiment: protection %q covers %s, which is not on the structure axis", p.Name, sc.Structure)
			}
			if seen[sc.Structure] {
				return s, fmt.Errorf("experiment: protection %q configures %s twice", p.Name, sc.Structure)
			}
			seen[sc.Structure] = true
		}
	}
	return s, nil
}

// noDuplicates rejects repeated axis entries, which would double-count
// cells in averages.
func noDuplicates(kind string, names []string) error {
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if seen[n] {
			return fmt.Errorf("experiment: duplicate %s %q", kind, n)
		}
		seen[n] = true
	}
	return nil
}

// MarshalIndent renders the normalized spec as stable, indented JSON —
// the canonical on-disk form.
func (s Spec) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(s.Normalize(), "", "  ")
}

// Compile validates the spec and lowers its grid into the executable
// plan, resolving chip and benchmark names through the registries. The
// cell order — benchmark-major, then chip, then structure — is the
// batch order the figures have always been scheduled in.
func (s Spec) Compile() (*Plan, error) {
	s, err := s.Validate()
	if err != nil {
		return nil, err
	}
	p := &Plan{Spec: s}
	p.Chips = make([]*chips.Chip, len(s.Chips))
	for i, name := range s.Chips {
		if p.Chips[i], err = chips.ByName(name); err != nil {
			return nil, err
		}
	}
	p.Benchmarks = make([]*workloads.Benchmark, len(s.Benchmarks))
	for i, name := range s.Benchmarks {
		if p.Benchmarks[i], err = workloads.ByName(name); err != nil {
			return nil, err
		}
	}
	for bi, b := range p.Benchmarks {
		for ci, c := range p.Chips {
			for si, st := range s.Structures {
				p.Cells = append(p.Cells, PlannedCell{
					Chip: c, Benchmark: b, Structure: st,
					BenchIndex: bi, ChipIndex: ci, StructIndex: si,
					Campaign: s.campaignFor(c, b, st),
				})
			}
		}
	}
	return p, nil
}

// campaignFor builds the canonical campaign of one cell. This is the
// single place cell identity is minted: equal (seed, chip, benchmark,
// structure, injections) always produce equal campaign.CellKeys, whether
// the cell came from a spec file, a canned figure or a CLI flag set. An
// estimator that runs no FI makes the cell golden-only: the golden run
// measures all it reports.
func (s Spec) campaignFor(chip *chips.Chip, bench *workloads.Benchmark, st gpu.Structure) finject.Campaign {
	return finject.Campaign{
		Chip:       chip,
		Benchmark:  bench,
		Structure:  st,
		Injections: s.Injections,
		Seed:       CellSeed(s.Seed, chip.Name, bench.Name, st),
		Policy:     s.Policy.Config().Policy(finject.Checkpoint{}),
		GoldenOnly: !s.Estimator.fi(),
	}
}

// CellSeed derives a distinct campaign seed per cell (FNV-style mixing)
// so that cells never share fault samples. It is the seed derivation the
// figures have always used, so stores written by any earlier build stay
// warm.
func CellSeed(base uint64, chip, bench string, st gpu.Structure) uint64 {
	h := base ^ 0xcbf29ce484222325
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 0x100000001b3
		}
	}
	mix(chip)
	mix(bench)
	h = (h ^ uint64(st)) * 0x100000001b3
	return h
}

// PlannedCell is one compiled grid cell: the resolved chip and
// benchmark, its grid coordinates and its canonical campaign.
type PlannedCell struct {
	Chip        *chips.Chip
	Benchmark   *workloads.Benchmark
	Structure   gpu.Structure
	BenchIndex  int
	ChipIndex   int
	StructIndex int
	Campaign    finject.Campaign
}

// Plan is a compiled spec: the resolved grid and its campaign cells in
// scheduling order.
type Plan struct {
	// Spec is the normalized spec the plan was compiled from.
	Spec Spec
	// Chips and Benchmarks are the resolved axes.
	Chips      []*chips.Chip
	Benchmarks []*workloads.Benchmark
	// Cells is the grid, benchmark-major, then chip, then structure.
	Cells []PlannedCell
}

// CellSpecs returns the normalized campaign.CellSpec of every planned
// cell — the exact work list, usable for progress accounting before or
// during a run.
func (p *Plan) CellSpecs() []campaign.CellSpec {
	specs := make([]campaign.CellSpec, len(p.Cells))
	for i, c := range p.Cells {
		specs[i] = campaign.SpecOf(c.Campaign)
	}
	return specs
}

// Keys returns the deduplicated cell keys of the plan, sorted — the
// spec's content-addressed footprint in any store.
func (p *Plan) Keys() []campaign.CellKey {
	seen := make(map[campaign.CellKey]bool, len(p.Cells))
	var keys []campaign.CellKey
	for _, c := range p.Cells {
		k := campaign.SpecOf(c.Campaign).Key()
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
