// Package ace implements ACE (Architecturally Correct Execution) lifetime
// analysis for the register file and the local/shared memory, the second
// reliability-assessment methodology the paper compares against
// statistical fault injection.
//
// The analysis streams the access trace of a single fault-free run: each
// storage entry's timeline is cut at its accesses, and an interval is ACE
// exactly when it ends in a read of a previously written (defined) value
// — a bit flip during such an interval would be consumed. Intervals
// ending in writes, trailing intervals, reads of never-written entries,
// and all unallocated time are unACE. This is first-order ACE analysis
// without transitive or program-level masking, which is why (as the paper
// observes) it overestimates the register-file AVF measured by fault
// injection while matching the local-memory AVF closely.
//
// The implementation is O(1) per access, state O(allocated entries): per
// entry it keeps only the last access cycle and a defined flag, on pages
// of 1,024 entries allocated by the first allocation bracket that covers
// them, and accumulates ACE entry-cycles into a single running sum per
// structure. On the HD 7970, whose register file is 0.11–3.90 % occupied
// across the suite, flat per-entry state for the whole chip made
// NewAnalyzer allocate 36,864 KiB and Measure up to 36,976 KiB; paged,
// NewAnalyzer allocates 36 KiB and Measure at most 1,036 KiB over the ten
// benchmarks, the simulation included (TestAnalyzerStateFollowsAllocation).
package ace

import (
	"fmt"

	"repro/internal/gpu"
)

// entry flags.
const (
	flagAllocated byte = 1 << iota
	flagDefined
)

// pageBits sizes the pages of per-entry state.
const (
	pageBits = 10
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// page is the state of pageSize consecutive entries; the zero value is
// unallocated.
type page struct {
	last  [pageSize]int64 // last access (or allocation) cycle per entry
	flags [pageSize]byte
}

// structState tracks one structure (register file or local memory) across
// all units of the chip.
type structState struct {
	perUnit int
	entries int       // units × perUnit
	pages   []*page   // nil until an allocation covers one of its entries
	aceSum  float64   // accumulated ACE entry-cycles
	unitSum []float64 // per-unit ACE entry-cycles (SM/CU breakdown)
	stray   int64     // accesses outside an allocation bracket
}

func newStructState(units, perUnit int) *structState {
	n := units * perUnit
	return &structState{
		perUnit: perUnit,
		entries: n,
		pages:   make([]*page, (n+pageMask)>>pageBits),
		unitSum: make([]float64, units),
	}
}

func (s *structState) access(unit, entry int, cycle int64, write bool) {
	i := unit*s.perUnit + entry
	var p *page
	if i >= 0 && i < s.entries {
		p = s.pages[i>>pageBits]
	}
	if p == nil || p.flags[i&pageMask]&flagAllocated == 0 {
		// Outside an allocation bracket: no ACE time, but a well-formed
		// simulator trace has none, so Measure fails on the count (an
		// access the device reports before its allocation would
		// otherwise only lower the AVF, quietly).
		s.stray++
		return
	}
	i &= pageMask
	f := p.flags[i]
	if write {
		p.flags[i] = f | flagDefined
	} else if f&flagDefined != 0 {
		d := float64(cycle - p.last[i])
		s.aceSum += d
		s.unitSum[unit] += d
	}
	p.last[i] = cycle
}

func (s *structState) alloc(unit, base, count int, cycle int64) {
	lo := unit*s.perUnit + base
	hi := lo + count
	if lo < 0 || hi > s.entries {
		return
	}
	for lo < hi {
		p := s.pages[lo>>pageBits]
		if p == nil {
			p = new(page)
			s.pages[lo>>pageBits] = p
		}
		from := lo & pageMask
		to := min(from+hi-lo, pageSize)
		for i := from; i < to; i++ {
			p.flags[i] = flagAllocated
			p.last[i] = cycle
		}
		lo += to - from
	}
}

func (s *structState) free(unit, base, count int) {
	lo := unit*s.perUnit + base
	hi := lo + count
	if lo < 0 || hi > s.entries {
		return
	}
	for lo < hi {
		from := lo & pageMask
		to := min(from+hi-lo, pageSize)
		if p := s.pages[lo>>pageBits]; p != nil {
			clear(p.flags[from:to])
		}
		lo += to - from
	}
}

// Analyzer is a gpu.Tracer that performs streaming ACE analysis on both
// target structures of one device.
type Analyzer struct {
	regs  *structState
	local *structState
}

// NewAnalyzer builds an analyzer for a device's structure geometry.
func NewAnalyzer(d gpu.Device) *Analyzer {
	return &Analyzer{
		regs:  newStructState(d.Units(), d.StructSize(gpu.RegisterFile)),
		local: newStructState(d.Units(), d.StructSize(gpu.LocalMemory)),
	}
}

// RegAccess implements gpu.Tracer.
func (a *Analyzer) RegAccess(unit, entry int, cycle int64, write bool) {
	a.regs.access(unit, entry, cycle, write)
}

// LocalAccess implements gpu.Tracer. Multi-byte accesses touch each byte.
func (a *Analyzer) LocalAccess(unit, offset, size int, cycle int64, write bool) {
	for b := 0; b < size; b++ {
		a.local.access(unit, offset+b, cycle, write)
	}
}

// RegAlloc implements gpu.Tracer.
func (a *Analyzer) RegAlloc(unit, base, count int, cycle int64) {
	a.regs.alloc(unit, base, count, cycle)
}

// RegFree implements gpu.Tracer.
func (a *Analyzer) RegFree(unit, base, count int, cycle int64) {
	a.regs.free(unit, base, count)
}

// LocalAlloc implements gpu.Tracer.
func (a *Analyzer) LocalAlloc(unit, base, size int, cycle int64) {
	a.local.alloc(unit, base, size, cycle)
}

// LocalFree implements gpu.Tracer.
func (a *Analyzer) LocalFree(unit, base, size int, cycle int64) {
	a.local.free(unit, base, size)
}

// AVF returns the ACE-based architectural vulnerability factor of a
// structure for an execution of totalCycles device cycles: ACE
// entry-cycles over total entry-cycles of the whole chip structure.
func (a *Analyzer) AVF(st gpu.Structure, totalCycles int64) (float64, error) {
	if totalCycles <= 0 {
		return 0, fmt.Errorf("ace: non-positive cycle count %d", totalCycles)
	}
	var s *structState
	switch st {
	case gpu.RegisterFile:
		s = a.regs
	case gpu.LocalMemory:
		s = a.local
	default:
		return 0, fmt.Errorf("ace: unknown structure %v", st)
	}
	total := float64(s.entries) * float64(totalCycles)
	if total == 0 {
		return 0, fmt.Errorf("ace: empty structure %v", st)
	}
	avf := s.aceSum / total
	if avf < 0 || avf > 1 {
		return 0, fmt.Errorf("ace: AVF %v out of [0,1]", avf)
	}
	return avf, nil
}

// ACEEntryCycles exposes the raw accumulated ACE entry-cycles (used by
// tests and the occupancy-normalization ablation).
func (a *Analyzer) ACEEntryCycles(st gpu.Structure) float64 {
	if st == gpu.RegisterFile {
		return a.regs.aceSum
	}
	return a.local.aceSum
}

// UnitAVF returns the per-SM/CU AVF breakdown of a structure: how the
// chip-wide vulnerability distributes across units. With small grids the
// dispatcher fills low-numbered units first, so the tail units' AVF
// drops to zero — the spatial face of the occupancy correlation.
func (a *Analyzer) UnitAVF(st gpu.Structure, totalCycles int64) ([]float64, error) {
	if totalCycles <= 0 {
		return nil, fmt.Errorf("ace: non-positive cycle count %d", totalCycles)
	}
	s := a.regs
	if st == gpu.LocalMemory {
		s = a.local
	}
	out := make([]float64, len(s.unitSum))
	denom := float64(s.perUnit) * float64(totalCycles)
	for u, sum := range s.unitSum {
		out[u] = sum / denom
	}
	return out, nil
}

var _ gpu.Tracer = (*Analyzer)(nil)

// Measure runs the host program once on the device with ACE tracing and
// returns the ACE AVFs of both structures plus the run statistics. The
// device must be freshly reset.
func Measure(d gpu.Device, hp *gpu.HostProgram) (regAVF, localAVF float64, st gpu.RunStats, err error) {
	a := NewAnalyzer(d)
	d.SetTracer(a)
	if err = hp.Run(d); err != nil {
		return 0, 0, st, fmt.Errorf("ace: golden run failed: %w", err)
	}
	d.SetTracer(nil)
	st = d.Stats()
	if reg, local := a.regs.stray, a.local.stray; reg+local != 0 {
		return 0, 0, st, fmt.Errorf("ace: %d accesses outside an allocation bracket (%d register, %d local)", reg+local, reg, local)
	}
	regAVF, err = a.AVF(gpu.RegisterFile, st.Cycles)
	if err != nil {
		return 0, 0, st, err
	}
	localAVF, err = a.AVF(gpu.LocalMemory, st.Cycles)
	if err != nil {
		return 0, 0, st, err
	}
	return regAVF, localAVF, st, nil
}
