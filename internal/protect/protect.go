// Package protect models hardware error-protection techniques applied to
// the two analyzed structures and quantifies their effect on the paper's
// metrics. The paper's conclusion motivates exactly this use of EPF:
// "architects can quantify the effectiveness of a hardware based error
// protection technique, which can be applied to their designs (if
// needed) along with a performance cost … different protection
// mechanisms can deliver different improvements in the FIT rates and can
// also have different impact on performance."
//
// Three classic SRAM protection schemes are modelled:
//
//   - None: the measured AVF stands.
//   - Parity: single-bit flips are detected but not corrected. Every
//     fault that would have manifested becomes a detected unrecoverable
//     error (DUE); with checkpoint-free execution the failure *rate* is
//     unchanged but all SDCs convert to DUEs — valuable when silent
//     corruption is costlier than termination. A small performance
//     overhead applies.
//   - SECDED: single-bit errors are corrected in place, eliminating
//     single-bit failures entirely at a larger performance and storage
//     overhead.
package protect

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/gpu"
	"repro/internal/metrics"
)

// Scheme is a protection technique.
type Scheme int

// Supported schemes.
const (
	None Scheme = iota
	Parity
	SECDED
)

// schemeNames is the one scheme-name table: String, MarshalText and
// UnmarshalText all read it.
var schemeNames = [...]string{None: "none", Parity: "parity", SECDED: "secded"}

// String returns the scheme name.
func (s Scheme) String() string {
	if s < 0 || int(s) >= len(schemeNames) {
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
	return schemeNames[s]
}

// MarshalText encodes the scheme by name.
func (s Scheme) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText decodes a scheme name; the empty name is None.
func (s *Scheme) UnmarshalText(b []byte) error {
	i := slices.Index(schemeNames[:], cmp.Or(string(b), schemeNames[None]))
	if i < 0 {
		return fmt.Errorf("protect: unknown protection scheme %q (want none, parity or secded)", b)
	}
	*s = Scheme(i)
	return nil
}

// Default per-scheme performance overheads (fraction of execution time)
// and storage overheads (fraction of protected bits), typical textbook
// figures: parity adds 1 bit per 32-bit word and negligible latency;
// SECDED adds 7 bits per 32-bit word and a correction stage.
const (
	ParityPerfOverhead  = 0.01
	ParityStoreOverhead = 1.0 / 32
	SECDEDPerfOverhead  = 0.05
	SECDEDStoreOverhead = 7.0 / 32
)

// Config applies one scheme to one structure. It is also one entry of
// an experiment spec's protection block, under these JSON names.
type Config struct {
	Structure gpu.Structure `json:"structure"`
	Scheme    Scheme        `json:"scheme"`
	// PerfOverhead overrides the scheme's default fractional slowdown
	// when non-nil.
	PerfOverhead *float64 `json:"perf_overhead,omitempty"`
}

// Validate refuses a scheme outside the name table and a negative
// slowdown.
func (c Config) Validate() error {
	if c.Scheme < 0 || int(c.Scheme) >= len(schemeNames) {
		return fmt.Errorf("protect: unknown protection scheme %v for %s (want none, parity or secded)", c.Scheme, c.Structure)
	}
	if c.PerfOverhead != nil && !(*c.PerfOverhead >= 0) {
		return fmt.Errorf("protect: negative perf_overhead %v for %s", *c.PerfOverhead, c.Structure)
	}
	return nil
}

// perfOverhead resolves the configured or default slowdown.
func (c Config) perfOverhead() float64 {
	if c.PerfOverhead != nil {
		return *c.PerfOverhead
	}
	switch c.Scheme {
	case Parity:
		return ParityPerfOverhead
	case SECDED:
		return SECDEDPerfOverhead
	default:
		return 0
	}
}

// StoreOverhead returns the fractional extra storage of a scheme.
func (c Config) StoreOverhead() float64 {
	switch c.Scheme {
	case Parity:
		return ParityStoreOverhead
	case SECDED:
		return SECDEDStoreOverhead
	default:
		return 0
	}
}

// Study is the input to an evaluation: the measured (unprotected) cell.
type Study struct {
	// Cycles and ClockGHz describe the unprotected execution.
	Cycles   int64
	ClockGHz float64
	// RawFITPerMbit is the raw soft-error rate.
	RawFITPerMbit float64
	// Structures carries the measured per-structure AVFs (SDC and DUE
	// components separately, from the FI outcome breakdown) and sizes.
	Structures []StructureMeasurement
}

// StructureMeasurement is one structure's measured vulnerability.
type StructureMeasurement struct {
	Structure gpu.Structure
	// SDCAVF and DUEAVF split the measured AVF by outcome class (from
	// finject.Result.Outcomes).
	SDCAVF float64
	DUEAVF float64
	Bits   int64
}

// Result quantifies one protection configuration. Its JSON names are
// those of an experiment's protection row, which embeds it.
type Result struct {
	// EPF after protection (failure = SDC + DUE, as the paper); 0 is +Inf.
	EPF float64 `json:"epf"`
	// SDCFIT and DUEFIT are the post-protection failure-rate components.
	SDCFIT float64 `json:"sdc_fit"`
	DUEFIT float64 `json:"due_fit"`
	// Slowdown is the total fractional performance cost.
	Slowdown float64 `json:"slowdown"`
	// ExtraBits is the added storage in bits.
	ExtraBits int64 `json:"extra_bits"`
}

// Evaluate applies the per-structure schemes to the study.
func Evaluate(s Study, cfgs []Config) (*Result, error) {
	if s.Cycles <= 0 || s.ClockGHz <= 0 {
		return nil, fmt.Errorf("protect: invalid execution (%d cycles at %v GHz)", s.Cycles, s.ClockGHz)
	}
	if s.RawFITPerMbit <= 0 {
		return nil, fmt.Errorf("protect: non-positive raw FIT rate %v", s.RawFITPerMbit)
	}
	byStruct := make(map[gpu.Structure]Config, len(cfgs))
	slow := 0.0
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if _, dup := byStruct[c.Structure]; dup {
			return nil, fmt.Errorf("protect: duplicate config for %s", c.Structure)
		}
		byStruct[c.Structure] = c
		slow += c.perfOverhead()
	}

	var sdcFIT, dueFIT float64
	var extra int64
	for _, m := range s.Structures {
		if m.SDCAVF < 0 || m.DUEAVF < 0 || m.SDCAVF+m.DUEAVF > 1 {
			return nil, fmt.Errorf("protect: invalid AVF split %v+%v for %s", m.SDCAVF, m.DUEAVF, m.Structure)
		}
		c := byStruct[m.Structure]
		switch c.Scheme {
		case None:
			sdcFIT += metrics.FIT(m.SDCAVF, m.Bits, s.RawFITPerMbit)
			dueFIT += metrics.FIT(m.DUEAVF, m.Bits, s.RawFITPerMbit)
		case Parity:
			// All manifestations become detected errors.
			dueFIT += metrics.FIT(m.SDCAVF+m.DUEAVF, m.Bits, s.RawFITPerMbit)
		case SECDED:
			// Single-bit faults corrected: no contribution.
		}
		extra += int64(float64(m.Bits) * c.StoreOverhead())
	}

	protCycles := int64(float64(s.Cycles) * (1 + slow))
	secs, err := metrics.ExecSeconds(protCycles, s.ClockGHz)
	if err != nil {
		return nil, err
	}
	eit, err := metrics.EIT(secs)
	if err != nil {
		return nil, err
	}
	res := &Result{
		SDCFIT:    sdcFIT,
		DUEFIT:    dueFIT,
		Slowdown:  slow,
		ExtraBits: extra,
	}
	if fit := sdcFIT + dueFIT; fit > 0 {
		res.EPF = eit / fit
	}
	return res, nil
}
