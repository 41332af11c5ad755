package ace

import (
	"encoding/binary"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"testing"

	"repro/internal/chips"
	"repro/internal/devices"
	"repro/internal/gpu"
	"repro/internal/workloads"
)

// access is one traced access of one entry.
type access struct {
	cycle int64
	write bool
}

// model is the reference implementation of both definitions, over flat
// per-entry state. ACE is summed as the analyzer summed it before the
// recorder replaced it — per entry the last access or allocation cycle
// and an allocated and a defined flag, an interval ACE when it ends in a
// read of a defined entry. The live spans are derived by brute force from
// every access kept as it came: a flip at cycle t is live iff the first
// access stamped >= t is a read. FuzzAnalyzerPages holds the paged
// recorder to it.
type model struct {
	units, perUnit   int
	last             []int64
	flags            []byte
	acc              [][]access
	ace              int64
	stray, undefined int64
	bad              bool
}

func newModel(units, perUnit int) *model {
	n := units * perUnit
	return &model{units: units, perUnit: perUnit, last: make([]int64, n), flags: make([]byte, n), acc: make([][]access, n)}
}

func (m *model) access(unit, entry int, cycle int64, write bool) {
	if unit < 0 || unit >= m.units || entry < 0 || entry >= m.perUnit || cycle >= math.MaxUint32 {
		m.bad = true
		return
	}
	i := unit*m.perUnit + entry
	m.acc[i] = append(m.acc[i], access{cycle, write})
	f := m.flags[i]
	switch {
	case f&allocated == 0:
		m.stray++
		return
	case write:
		m.flags[i] = f | defined
	case f&defined != 0:
		m.ace += cycle - m.last[i]
	default:
		m.undefined++
	}
	m.last[i] = cycle
}

func (m *model) bracket(unit, base, count int, cycle int64, set byte) {
	if unit < 0 || unit >= m.units || base < 0 || count < 0 || base+count > m.perUnit {
		return
	}
	for i := unit*m.perUnit + base; i < unit*m.perUnit+base+count; i++ {
		m.flags[i] = set
		m.last[i] = cycle
	}
}

// spans returns an entry's live spans by the definition: for each cycle
// with an access, the flip cycles since the previous such cycle are met
// first by that cycle's first access, and are live if it is a read.
// Adjacent spans are merged.
func spans(acc []access) []span {
	var out []span
	prev := int64(-1)
	for i, a := range acc {
		if i > 0 && acc[i-1].cycle == a.cycle {
			continue
		}
		if !a.write {
			if n := len(out); n > 0 && int64(out[n-1].hi) == prev {
				out[n-1].hi = uint32(a.cycle)
			} else {
				out = append(out, span{uint32(prev + 1), uint32(a.cycle)})
			}
		}
		prev = a.cycle
	}
	return out
}

// table returns what the recorder's compacted table must hold.
func (m *model) table() (keys []uint32, offs []uint32, all []span, live int64) {
	for k, acc := range m.acc {
		sp := spans(acc)
		if len(sp) == 0 {
			continue
		}
		keys = append(keys, uint32(k))
		offs = append(offs, uint32(len(all)))
		all = append(all, sp...)
		for _, s := range sp {
			live += int64(s.hi-s.lo) + 1
		}
	}
	return keys, append(offs, uint32(len(all))), all, live
}

// Fuzz operations, one fuzzOpSize-byte record each: kind, unit, entry
// (uint16), count (uint16), cycles since the previous operation (late
// moves the clock past the recorder's 32-bit stamps), lanes (uint64). A
// lane batch is one RegAccess of entry+l for every lane l in lanes; it
// ignores count.
const (
	opRegAlloc = iota
	opRegFree
	opRegWrite
	opRegRead
	opLocalAlloc
	opLocalFree
	opLocalWrite
	opLocalRead
	opRegLanesWrite
	opRegLanesRead
	numOps

	// anywhere in the kind byte lets an access reach past its unit.
	anywhere = 0x80
	late     = 0xFF

	fuzzOpSize = 15
	// Units of fuzzPerUnit entries straddle the page edges (1,024, 2,048,
	// 3,072, 4,096), and the last page is partial.
	fuzzUnits   = 3
	fuzzPerUnit = 1500
)

func fuzzOp(kind, unit byte, entry, count uint16, dt byte) []byte {
	b := make([]byte, fuzzOpSize)
	b[0], b[1], b[6] = kind, unit, dt
	binary.LittleEndian.PutUint16(b[2:], entry)
	binary.LittleEndian.PutUint16(b[4:], count)
	return b
}

func fuzzLanes(kind, unit byte, entry uint16, lanes uint64, dt byte) []byte {
	b := fuzzOp(kind, unit, entry, 0, dt)
	binary.LittleEndian.PutUint64(b[7:], lanes)
	return b
}

// FuzzAnalyzerPages runs random streams of allocations, frees,
// reallocations and accesses of both structures through a Recorder and
// through the model, and after every operation requires the same live and
// ACE sums, stray and undefined-read counts — no table where an access
// could not be placed — the per-member expansion equal to the model's
// table, every entry's spans gathered from the retained form, its own and
// its rows', equal to the model's, and the lookup Dead makes agreeing at
// every span end and the cycles beside it; and, where neither count is
// non-zero, the two definitions to agree. Brackets reach one unit past
// the geometry and entries and counts past a unit, and so do accesses
// marked anywhere, so out-of-range brackets and accesses are in the
// stream. A lane batch must be the stream of its per-entry accesses in
// lane order, which the model takes one at a time.
func FuzzAnalyzerPages(f *testing.F) {
	seed := func(ops ...[]byte) { f.Add(slices.Concat(ops...)) }
	// A bracket across the first page edge, read and written on both sides.
	seed(fuzzOp(opRegAlloc, 0, 1000, 100, 0),
		fuzzOp(opRegWrite, 0, 1020, 0, 3), fuzzOp(opRegWrite, 0, 1030, 0, 1),
		fuzzOp(opRegRead, 0, 1020, 0, 9), fuzzOp(opRegRead, 0, 1030, 0, 2),
		fuzzOp(opRegFree, 0, 1000, 100, 4), fuzzOp(opRegRead, 0, 1030, 0, 1))
	// A free of a range no bracket ever covered, then accesses to it.
	seed(fuzzOp(opRegFree, 2, 0, 1500, 0), fuzzOp(opLocalFree, 1, 700, 800, 0),
		fuzzOp(opRegWrite, 2, 10, 0, 1), fuzzOp(opLocalRead, 1, 800, 3, 1))
	// An access to a page nothing has touched, beside an allocated one.
	seed(fuzzOp(opLocalAlloc, 0, 0, 64, 0), fuzzOp(opLocalWrite, 0, 0, 3, 2),
		fuzzOp(opLocalRead, 2, 1400, 3, 5), fuzzOp(opLocalRead, 0, 0, 3, 5))
	// Brackets reaching past the structure, and a reallocation that must
	// forget the defined flag.
	seed(fuzzOp(opRegAlloc, 2, 1000, 600, 0), fuzzOp(opRegAlloc, 3, 0, 1, 0),
		fuzzOp(opRegAlloc, 1, 1480, 20, 1), fuzzOp(opRegWrite, 1, 1495, 0, 1),
		fuzzOp(opRegAlloc, 1, 1480, 20, 6), fuzzOp(opRegRead, 1, 1495, 0, 3),
		fuzzOp(opRegWrite, 2, 1499, 0, 1))
	// A read and a write in one cycle, both ways round.
	seed(fuzzOp(opRegAlloc, 0, 0, 8, 0),
		fuzzOp(opRegWrite, 0, 3, 0, 2), fuzzOp(opRegRead, 0, 3, 0, 0), fuzzOp(opRegRead, 0, 3, 0, 4),
		fuzzOp(opRegRead, 0, 4, 0, 1), fuzzOp(opRegWrite, 0, 4, 0, 0), fuzzOp(opRegRead, 0, 4, 0, 3))
	// A read extending a span across a write in its own cycle, then a
	// write in a later cycle closing it and a read opening the next.
	seed(fuzzOp(opLocalAlloc, 1, 0, 16, 0), fuzzOp(opLocalWrite, 1, 8, 0, 1),
		fuzzOp(opLocalRead, 1, 8, 0, 4), fuzzOp(opLocalWrite, 1, 8, 0, 0),
		fuzzOp(opLocalRead, 1, 8, 0, 5), fuzzOp(opLocalWrite, 1, 8, 0, 2),
		fuzzOp(opLocalRead, 1, 8, 0, 3))
	// A stray read, then one past the unit.
	seed(fuzzOp(opRegRead, 1, 7, 0, 9), fuzzOp(opRegAlloc, 1, 0, 16, 1),
		fuzzOp(opRegRead|anywhere, 1, 1600, 0, 1))
	// A full 64-lane batch, written and read, then one of its entries read
	// on its own.
	seed(fuzzOp(opRegAlloc, 0, 0, 200, 0), fuzzLanes(opRegLanesWrite, 0, 10, ^uint64(0), 2),
		fuzzLanes(opRegLanesRead, 0, 10, ^uint64(0), 3), fuzzOp(opRegRead, 0, 40, 0, 1))
	// A one-lane batch (a scalar read of a VGPR) on a row's member: it is
	// recorded on its own and dissolves the row, which the whole batch
	// cannot form again until a write evens the entries out.
	seed(fuzzOp(opRegAlloc, 0, 0, 8, 0), fuzzLanes(opRegLanesWrite, 0, 4, 0xF, 1),
		fuzzLanes(opRegLanesRead, 0, 5, 1, 4), fuzzLanes(opRegLanesRead, 0, 4, 0xF, 2),
		fuzzLanes(opRegLanesWrite, 0, 4, 0xF, 2), fuzzLanes(opRegLanesRead, 0, 4, 0xF, 1))
	// Sparse lanes across the first page edge.
	seed(fuzzOp(opRegAlloc, 1, 0, 1500, 0), fuzzLanes(opRegLanesWrite, 1, 1000, 0xFF00FF00FF00FF00, 1),
		fuzzLanes(opRegLanesRead, 1, 1000, 0xF0F0F0F0F0F0F0F0, 5), fuzzLanes(opRegLanesWrite, 1, 1000, 0x8000000000000001, 2))
	// Lanes whose entries lie past the unit: no table, and the lanes
	// before them still count.
	seed(fuzzOp(opRegAlloc, 2, 1400, 100, 0), fuzzLanes(opRegLanesWrite, 2, 1490, 0xFFFF, 1),
		fuzzLanes(opRegLanesRead, 2, 1490, 0x3FF, 3))
	// A batch at a cycle past the 32-bit stamps: no table.
	seed(fuzzOp(opRegAlloc, 0, 0, 64, 0), fuzzLanes(opRegLanesWrite, 0, 0, 0xF, 1),
		fuzzLanes(opRegLanesRead, 0, 0, 0xF, late))
	// An empty batch names no entry, so none it cannot place: not on a
	// unit past the geometry, nor past the stamps.
	seed(fuzzLanes(opRegLanesRead|anywhere, 3, 0, 0, 1), fuzzLanes(opRegLanesWrite, 0, 0, 0, late))
	// Rows. A repeated batch: a row forms on the write, and the reads and
	// the closing write hit it.
	seed(fuzzOp(opRegAlloc, 0, 0, 256, 0), fuzzLanes(opRegLanesWrite, 0, 8, 0xFF, 1),
		fuzzLanes(opRegLanesRead, 0, 8, 0xFF, 2), fuzzLanes(opRegLanesRead, 0, 8, 0xFF, 3),
		fuzzLanes(opRegLanesWrite, 0, 8, 0xFF, 1), fuzzLanes(opRegLanesRead, 0, 8, 0xFF, 5),
		fuzzOp(opRegRead, 0, 12, 0, 1), fuzzLanes(opRegLanesWrite, 0, 200, 0xF, 1))
	// Subset batches, on the row's first lane and past it, then the whole
	// batch again: it cannot form until a write evens the entries out, and
	// then forms again.
	seed(fuzzOp(opRegAlloc, 0, 0, 256, 0), fuzzLanes(opRegLanesWrite, 0, 100, 0xFF, 1),
		fuzzLanes(opRegLanesRead, 0, 100, 0xFF, 2), fuzzLanes(opRegLanesRead, 0, 100, 0x0F, 3),
		fuzzLanes(opRegLanesRead, 0, 100, 0xF0, 1), fuzzLanes(opRegLanesRead, 0, 100, 0xFF, 2),
		fuzzLanes(opRegLanesWrite, 0, 100, 0xFF, 4), fuzzLanes(opRegLanesRead, 0, 100, 0xFF, 2),
		fuzzLanes(opRegLanesWrite, 0, 100, 0xFF, 3))
	// Batches over some of a row's entries and past it, a per-entry access
	// to a member, and the row forming again over what the access left
	// equal; then a batch one entry on.
	seed(fuzzOp(opRegAlloc, 0, 0, 64, 0), fuzzLanes(opRegLanesWrite, 0, 20, 0xF, 1),
		fuzzLanes(opRegLanesRead, 0, 20, 0xF, 2), fuzzLanes(opRegLanesRead, 0, 20, 0x55, 3),
		fuzzLanes(opRegLanesRead, 0, 20, 0x55, 1), fuzzOp(opRegRead, 0, 22, 0, 2),
		fuzzOp(opRegWrite, 0, 21, 0, 0), fuzzLanes(opRegLanesWrite, 0, 20, 0xF, 3),
		fuzzLanes(opRegLanesRead, 0, 20, 0xF, 2), fuzzLanes(opRegLanesRead, 0, 21, 0xF, 1))
	// A batch over a row's first entry and the untouched one before it,
	// whose state the row's entries held when it formed: no second row
	// takes the first one's entry. Then no row hits a batch from the same
	// first entry under another mask.
	seed(fuzzOp(opRegAlloc, 0, 0, 16, 0), fuzzLanes(opRegLanesWrite, 0, 10, 0b11, 1),
		fuzzLanes(opRegLanesRead, 0, 9, 0b11, 2),
		fuzzLanes(opRegLanesRead, 0, 10, 0b11, 1), fuzzLanes(opRegLanesWrite, 0, 10, 0b11, 1),
		fuzzLanes(opRegLanesRead, 0, 10, 0b11, 1), fuzzLanes(opRegLanesRead, 0, 10, 0b101, 1))
	// Two entries equal but for their open span's first cycle: no row.
	seed(fuzzOp(opRegAlloc, 0, 0, 8, 0), fuzzLanes(opRegLanesWrite, 0, 0, 0b11, 1),
		fuzzOp(opRegRead, 0, 0, 0, 2), fuzzOp(opRegWrite, 0, 1, 0, 1), fuzzOp(opRegRead, 0, 1, 0, 2),
		fuzzOp(opRegRead, 0, 0, 0, 0), fuzzLanes(opRegLanesRead, 0, 0, 0b11, 2),
		fuzzLanes(opRegLanesWrite, 0, 0, 0b11, 1))
	// Brackets over rows: a free and a reallocation that cover the row
	// whole, a read before a write, a free of part of it, then reads of
	// it: stray in part.
	seed(fuzzOp(opRegAlloc, 0, 0, 64, 0), fuzzLanes(opRegLanesWrite, 0, 16, 0x3FF, 1),
		fuzzLanes(opRegLanesRead, 0, 16, 0x3FF, 2), fuzzOp(opRegFree, 0, 0, 64, 1),
		fuzzOp(opRegAlloc, 0, 0, 64, 1), fuzzLanes(opRegLanesRead, 0, 16, 0x3FF, 1),
		fuzzLanes(opRegLanesWrite, 0, 16, 0x3FF, 1),
		fuzzLanes(opRegLanesRead, 0, 16, 0x3FF, 2), fuzzOp(opRegFree, 0, 0, 20, 1),
		fuzzLanes(opRegLanesRead, 0, 16, 0x3FF, 2), fuzzLanes(opRegLanesWrite, 0, 16, 0x3FF, 2))
	// Rows across page edges (keys 1,024 and 2,048), and a bracket that
	// ends inside one.
	seed(fuzzOp(opRegAlloc, 0, 900, 600, 0), fuzzOp(opRegAlloc, 1, 0, 1500, 0),
		fuzzLanes(opRegLanesWrite, 0, 1010, 0xFFFFF, 1), fuzzLanes(opRegLanesWrite, 1, 540, ^uint64(0), 0),
		fuzzLanes(opRegLanesRead, 0, 1010, 0xFFFFF, 2), fuzzLanes(opRegLanesRead, 1, 540, ^uint64(0), 0),
		fuzzOp(opRegFree, 1, 0, 560, 3), fuzzLanes(opRegLanesRead, 1, 540, ^uint64(0), 1),
		fuzzLanes(opRegLanesWrite, 0, 1010, 0xFFFFF, 2), fuzzLanes(opRegLanesRead, 0, 1010, 0xFFFFF, 1))
	// Local accesses of 2–4 bytes: a word forms a row, a half-word and a
	// byte inside it dissolve it, and a word across the unit's end cannot
	// be placed.
	seed(fuzzOp(opLocalAlloc, 0, 0, 64, 0), fuzzOp(opLocalAlloc, 1, 1400, 100, 0),
		fuzzOp(opLocalWrite, 0, 4, 3, 1), fuzzOp(opLocalRead, 0, 4, 3, 2), fuzzOp(opLocalRead, 0, 4, 3, 1),
		fuzzOp(opLocalRead, 0, 4, 1, 2), fuzzOp(opLocalRead, 0, 6, 0, 1), fuzzOp(opLocalWrite, 0, 4, 2, 3),
		fuzzOp(opLocalRead, 0, 4, 3, 1), fuzzOp(opLocalWrite, 1, 1496, 3, 1), fuzzOp(opLocalWrite, 1, 1498, 3, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := recorderOf(fuzzUnits, fuzzPerUnit, fuzzPerUnit)
		regs, local := newModel(fuzzUnits, fuzzPerUnit), newModel(fuzzUnits, fuzzPerUnit)
		var cycle int64
		for n := 0; len(data) >= fuzzOpSize; n++ {
			op := data[:fuzzOpSize]
			data = data[fuzzOpSize:]
			unit := int(op[1]) % (fuzzUnits + 1)
			entry := int(binary.LittleEndian.Uint16(op[2:])) % (2 * fuzzPerUnit)
			count := int(binary.LittleEndian.Uint16(op[4:])) % (2 * fuzzPerUnit)
			dt := int64(op[6])
			if op[6] == late {
				dt = math.MaxUint32
			}
			cycle += dt
			size := count%4 + 1
			lanes := binary.LittleEndian.Uint64(op[7:])
			kind := op[0] &^ anywhere % numOps
			if kind != opRegAlloc && kind != opRegFree && kind != opLocalAlloc && kind != opLocalFree && op[0]&anywhere == 0 {
				unit, entry = unit%fuzzUnits, entry%fuzzPerUnit
			}
			switch kind {
			case opRegAlloc:
				r.RegAlloc(unit, entry, count, cycle)
				regs.bracket(unit, entry, count, cycle, allocated)
			case opRegFree:
				r.RegFree(unit, entry, count, cycle)
				regs.bracket(unit, entry, count, cycle, 0)
			case opRegWrite, opRegRead:
				r.RegAccess(unit, entry, 1, cycle, kind == opRegWrite)
				regs.access(unit, entry, cycle, kind == opRegWrite)
			case opRegLanesWrite, opRegLanesRead:
				write := kind == opRegLanesWrite
				r.RegAccess(unit, entry, lanes, cycle, write)
				for l := range 64 {
					if lanes&(1<<l) != 0 {
						regs.access(unit, entry+l, cycle, write)
					}
				}
			case opLocalAlloc:
				r.LocalAlloc(unit, entry, count, cycle)
				local.bracket(unit, entry, count, cycle, allocated)
			case opLocalFree:
				r.LocalFree(unit, entry, count, cycle)
				local.bracket(unit, entry, count, cycle, 0)
			case opLocalWrite, opLocalRead:
				r.LocalAccess(unit, entry, size, cycle, kind == opLocalWrite)
				for b := 0; b < size; b++ {
					local.access(unit, entry+b, cycle, kind == opLocalWrite)
				}
			}
			m := r.Liveness()
			for s, c := range []struct {
				got  *track
				want *model
			}{{&r[gpu.RegisterFile], regs}, {&r[gpu.LocalMemory], local}} {
				st := gpu.Structure(s)
				keys, offs, all, live := c.want.table()
				got, want := c.got, c.want
				if got.live != live || got.ace != want.ace || got.stray != want.stray || got.undefined != want.undefined || got.bad != want.bad {
					t.Fatalf("op %d %v: %v recorder live=%d ace=%d stray=%d undefined=%d bad=%v, model %d/%d/%d/%d/%v",
						n, op, st, got.live, got.ace, got.stray, got.undefined, got.bad, live, want.ace, want.stray, want.undefined, want.bad)
				}
				if want.stray == 0 && want.undefined == 0 && want.ace != live {
					t.Fatalf("op %d %v: %v: no stray access or undefined read, yet %d ACE and %d live entry-cycles", n, op, st, want.ace, live)
				}
				lt := m[st]
				if want.bad {
					if lt != nil {
						t.Fatalf("op %d %v: %v: a table after an access the recorder cannot place", n, op, st)
					}
					continue
				}
				if cap(lt.keys) != len(lt.keys) {
					t.Fatalf("op %d %v: %v table reserved %d keys, holds %d", n, op, st, cap(lt.keys), len(lt.keys))
				}
				if ex := got.expand(); !slices.Equal(ex.keys, keys) || !slices.Equal(ex.offs, offs) || !slices.Equal(ex.spans, all) {
					t.Fatalf("op %d %v: %v expansion keys=%v offs=%v spans=%v, model %v/%v/%v", n, op, st, ex.keys, ex.offs, ex.spans, keys, offs, all)
				}
				for i := 1; i < len(lt.offs); i++ {
					if lt.offs[i] <= lt.offs[i-1] {
						t.Fatalf("op %d %v: %v table retains an empty span list: offs=%v", n, op, st, lt.offs)
					}
				}
				reach := 0
				for _, m := range lt.rowMask {
					reach = max(reach, 63-bits.LeadingZeros64(m))
				}
				if !slices.IsSorted(lt.rowAt) || lt.reach != uint32(reach) {
					t.Fatalf("op %d %v: %v table rows %v, reach %d, want ascending and reach %d", n, op, st, lt.rowAt, lt.reach, reach)
				}
				held := lt.perEntry()
				for k, acc := range want.acc {
					sp := spans(acc)
					if got := held[uint32(k)]; !slices.Equal(got, sp) {
						t.Fatalf("op %d %v: %v entry %d: table spans %v, model %v", n, op, st, k, got, sp)
					}
					for _, s := range sp {
						for _, at := range []uint32{s.lo - 1, s.lo, s.hi, s.hi + 1} {
							if covered := slices.ContainsFunc(sp, func(s span) bool { return s.lo <= at && at <= s.hi }); lt.covers(uint32(k), at) != covered {
								t.Fatalf("op %d %v: %v entry %d cycle %d: covered=%v, model %v", n, op, st, k, at, !covered, covered)
							}
						}
					}
				}
				if l, a := lt.EntryCycles(); l != live || a != want.ace {
					t.Fatalf("op %d %v: %v table entry-cycles %d/%d, model %d/%d", n, op, st, l, a, live, want.ace)
				}
			}
		}
	})
}

// allocatedBy returns the bytes f allocates on the heap.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAnalyzerStateFollowsAllocation: the recorder's state grows with the
// entries blocks allocate and touch, not with the chip. The HD 7970's
// register file is 0.11–3.90 % occupied across the suite; flat per-entry
// state for both of its structures was 36 MiB a traced run.
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
	n := allocatedBy(func() { NewRecorder(d) })
	if n > 128<<10 {
		t.Errorf("NewRecorder on the %s allocates %d KiB, want at most 128", chip.Name, n>>10)
	}
	t.Logf("NewRecorder: %d KiB", n>>10)
	for _, b := range workloads.All() {
		d := newDevice()
		hp, err := b.New(chip.Vendor)
		if err != nil {
			t.Fatal(err)
		}
		var merr error
		n := allocatedBy(func() { _, _, _, merr = Measure(d, hp) })
		if merr != nil {
			t.Fatalf("%s: %v", b.Name, merr)
		}
		if n > 4<<20 {
			t.Errorf("Measure of %s on the %s allocates %d KiB, want at most 4 MiB", b.Name, chip.Name, n>>10)
		}
		t.Logf("%s: %d KiB", b.Name, n>>10)
	}
}

// TestLivenessTablesStaySmall reports what the liveness tables of the
// paper's 40 (chip, benchmark) pairs retain, beside what the per-member
// expansion would, and bounds each table and their total: a figure pass
// keeps all 40 alive at once.
func TestLivenessTablesStaySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size chips")
	}
	largest, total, expanded := 0, 0, 0
	for _, chip := range chips.Evaluated() {
		for _, bench := range workloads.All() {
			r, _ := tracePair(t, chip, bench)
			m := r.Liveness()
			regs, local := m[gpu.RegisterFile].bytes(), m[gpu.LocalMemory].bytes()
			exRegs, exLocal := r[gpu.RegisterFile].expand().bytes(), r[gpu.LocalMemory].expand().bytes()
			t.Logf("%-16s %-10s liveness: register file %7d B (expanded %8d), local memory %7d B (expanded %8d)",
				chip.Name, bench.Name, regs, exRegs, local, exLocal)
			largest = max(largest, regs, local)
			total, expanded = total+regs+local, expanded+exRegs+exLocal
		}
	}
	t.Logf("retained over the 40 pairs: %d B, expanded %d B", total, expanded)
	if largest > 1<<20 {
		t.Errorf("largest liveness table retains %d bytes, want at most 1 MiB", largest)
	}
	if total > 10_000_000 {
		t.Errorf("the 40 pairs' liveness tables retain %d bytes, want at most 10 MB", total)
	}
}

// bytes is what the table retains.
func (lt *Table) bytes() int {
	return 4*len(lt.keys) + 4*len(lt.rowAt) + 8*len(lt.rowMask) + 4*len(lt.offs) + 8*len(lt.spans) + 8*len(lt.blocks)
}
