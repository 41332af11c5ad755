package ace

import (
	"encoding/binary"
	"runtime"
	"slices"
	"testing"

	"repro/internal/chips"
	"repro/internal/devices"
	"repro/internal/gpu"
	"repro/internal/workloads"
)

// flatState is the analyzer's state as it was before it went on pages:
// one flat slice per field over every entry of the chip. FuzzAnalyzerPages
// holds the paged structState to it.
type flatState struct {
	perUnit int
	last    []int64
	flags   []byte
	aceSum  float64
	unitSum []float64
	stray   int64
}

func newFlatState(units, perUnit int) *flatState {
	n := units * perUnit
	return &flatState{
		perUnit: perUnit,
		last:    make([]int64, n),
		flags:   make([]byte, n),
		unitSum: make([]float64, units),
	}
}

func (s *flatState) access(unit, entry int, cycle int64, write bool) {
	i := unit*s.perUnit + entry
	if i < 0 || i >= len(s.flags) || s.flags[i]&flagAllocated == 0 {
		s.stray++
		return
	}
	f := s.flags[i]
	if write {
		s.flags[i] = f | flagDefined
	} else if f&flagDefined != 0 {
		d := float64(cycle - s.last[i])
		s.aceSum += d
		s.unitSum[unit] += d
	}
	s.last[i] = cycle
}

func (s *flatState) alloc(unit, base, count int, cycle int64) {
	lo := unit*s.perUnit + base
	hi := lo + count
	if lo < 0 || hi > len(s.flags) {
		return
	}
	for i := lo; i < hi; i++ {
		s.flags[i] = flagAllocated
		s.last[i] = cycle
	}
}

func (s *flatState) free(unit, base, count int) {
	lo := unit*s.perUnit + base
	hi := lo + count
	if lo < 0 || hi > len(s.flags) {
		return
	}
	for i := lo; i < hi; i++ {
		s.flags[i] = 0
	}
}

// Fuzz operations, one fuzzOpSize-byte record each: kind, unit, entry
// (uint16), count (uint16), cycles since the previous operation.
const (
	opRegAlloc = iota
	opRegFree
	opRegWrite
	opRegRead
	opLocalAlloc
	opLocalFree
	opLocalWrite
	opLocalRead
	numOps

	fuzzOpSize = 7
	// Units of fuzzPerUnit entries straddle the page edges (1,024, 2,048,
	// 3,072, 4,096), and the last page is partial.
	fuzzUnits   = 3
	fuzzPerUnit = 1500
)

func fuzzOp(kind, unit byte, entry, count uint16, dt byte) []byte {
	b := []byte{kind, unit, 0, 0, 0, 0, dt}
	binary.LittleEndian.PutUint16(b[2:], entry)
	binary.LittleEndian.PutUint16(b[4:], count)
	return b
}

// FuzzAnalyzerPages runs random streams of allocations, frees,
// reallocations and accesses of both structures through an Analyzer and
// through the flat model, and requires the same ACE sum, per-unit sums and
// stray count after every operation. Units run one past the geometry and
// entries and counts past a unit, so out-of-range brackets and accesses
// are in the stream.
func FuzzAnalyzerPages(f *testing.F) {
	seed := func(ops ...[]byte) { f.Add(slices.Concat(ops...)) }
	// A bracket across the first page edge, read and written on both sides.
	seed(fuzzOp(opRegAlloc, 0, 1000, 100, 0),
		fuzzOp(opRegWrite, 0, 1020, 0, 3), fuzzOp(opRegWrite, 0, 1030, 0, 1),
		fuzzOp(opRegRead, 0, 1020, 0, 9), fuzzOp(opRegRead, 0, 1030, 0, 2),
		fuzzOp(opRegFree, 0, 1000, 100, 4), fuzzOp(opRegRead, 0, 1030, 0, 1))
	// A free of a range no bracket ever covered, then accesses to it.
	seed(fuzzOp(opRegFree, 2, 0, 1500, 0), fuzzOp(opLocalFree, 1, 700, 900, 0),
		fuzzOp(opRegWrite, 2, 10, 0, 1), fuzzOp(opLocalRead, 1, 800, 3, 1))
	// An access to a page nothing has touched, beside an allocated one.
	seed(fuzzOp(opLocalAlloc, 0, 0, 64, 0), fuzzOp(opLocalWrite, 0, 0, 3, 2),
		fuzzOp(opLocalRead, 2, 1400, 3, 5), fuzzOp(opLocalRead, 0, 0, 3, 5))
	// Brackets reaching past the structure, and a reallocation that must
	// forget the defined flag.
	seed(fuzzOp(opRegAlloc, 2, 1000, 600, 0), fuzzOp(opRegAlloc, 3, 0, 1, 0),
		fuzzOp(opRegAlloc, 1, 1490, 20, 1), fuzzOp(opRegWrite, 1, 1495, 0, 1),
		fuzzOp(opRegAlloc, 1, 1490, 20, 6), fuzzOp(opRegRead, 1, 1495, 0, 3),
		fuzzOp(opRegWrite, 2, 1499, 0, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		a := newAnalyzerWithGeom(fuzzUnits, fuzzPerUnit, fuzzPerUnit)
		regs, local := newFlatState(fuzzUnits, fuzzPerUnit), newFlatState(fuzzUnits, fuzzPerUnit)
		var cycle int64
		for n := 0; len(data) >= fuzzOpSize; n++ {
			op := data[:fuzzOpSize]
			data = data[fuzzOpSize:]
			unit := int(op[1]) % (fuzzUnits + 1)
			entry := int(binary.LittleEndian.Uint16(op[2:])) % (2 * fuzzPerUnit)
			count := int(binary.LittleEndian.Uint16(op[4:])) % (2 * fuzzPerUnit)
			cycle += int64(op[6])
			size := count%4 + 1
			switch op[0] % numOps {
			case opRegAlloc:
				a.RegAlloc(unit, entry, count, cycle)
				regs.alloc(unit, entry, count, cycle)
			case opRegFree:
				a.RegFree(unit, entry, count, cycle)
				regs.free(unit, entry, count)
			case opRegWrite, opRegRead:
				write := op[0]%numOps == opRegWrite
				a.RegAccess(unit, entry, cycle, write)
				regs.access(unit, entry, cycle, write)
			case opLocalAlloc:
				a.LocalAlloc(unit, entry, count, cycle)
				local.alloc(unit, entry, count, cycle)
			case opLocalFree:
				a.LocalFree(unit, entry, count, cycle)
				local.free(unit, entry, count)
			case opLocalWrite, opLocalRead:
				write := op[0]%numOps == opLocalWrite
				a.LocalAccess(unit, entry, size, cycle, write)
				for b := 0; b < size; b++ {
					local.access(unit, entry+b, cycle, write)
				}
			}
			for _, c := range []struct {
				name string
				got  *structState
				want *flatState
			}{{"register", a.regs, regs}, {"local", a.local, local}} {
				if c.got.aceSum != c.want.aceSum || c.got.stray != c.want.stray || !slices.Equal(c.got.unitSum, c.want.unitSum) {
					t.Fatalf("op %d %v: %s state ace=%v units=%v stray=%d, flat model ace=%v units=%v stray=%d",
						n, op, c.name, c.got.aceSum, c.got.unitSum, c.got.stray, c.want.aceSum, c.want.unitSum, c.want.stray)
				}
			}
		}
	})
}

// allocated returns the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAnalyzerStateFollowsAllocation: the analyzer's state grows with the
// entries blocks allocate, not with the chip. The HD 7970's register
// file is 0.11–3.90 % occupied across the suite; flat per-entry state for
// both of its structures was 36 MiB a traced run.
func TestAnalyzerStateFollowsAllocation(t *testing.T) {
	chip, err := chips.ByName("HD Radeon 7970")
	if err != nil {
		t.Fatal(err)
	}
	newDevice := func() gpu.Device {
		d, err := devices.New(chip)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d := newDevice()
	n := allocated(func() { NewAnalyzer(d) })
	if n > 128<<10 {
		t.Errorf("NewAnalyzer on the %s allocates %d KiB, want at most 128", chip.Name, n>>10)
	}
	t.Logf("NewAnalyzer: %d KiB", n>>10)
	for _, b := range workloads.All() {
		d := newDevice()
		hp, err := b.New(chip.Vendor)
		if err != nil {
			t.Fatal(err)
		}
		var merr error
		n := allocated(func() { _, _, _, merr = Measure(d, hp) })
		if merr != nil {
			t.Fatalf("%s: %v", b.Name, merr)
		}
		if n > 4<<20 {
			t.Errorf("Measure of %s on the %s allocates %d KiB, want at most 4 MiB", b.Name, chip.Name, n>>10)
		}
		t.Logf("%s: %d KiB", b.Name, n>>10)
	}
}
