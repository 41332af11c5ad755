package finject

import (
	"math"
	"slices"
	"sort"

	"repro/internal/chips"
	"repro/internal/gpu"
)

// Fault-site pruning: during the fault-free reference run a gpu.Tracer
// records, per touched entry of the register file and of local memory,
// the cycles at which a flip would be met by a read before anything else.
// A sampled fault outside every such interval is Masked without touching
// a device (but for the share auditEvery still simulates, to check this
// very claim), and this is exact, not a heuristic: the device applies a
// fault at the top of the first launch-loop iteration whose cycle has
// reached Fault.Cycle, before any access of that iteration, and every
// access of Unit.Regs / Unit.Local is reported to the tracer stamped with
// its iteration's cycle (the accessor premise, pinned by
// simt.TestStorageAccessIsTraced). So a flip at cycle t comes after every
// access stamped < t and before every access stamped >= t, and until the
// first of those is a read the faulty run is the golden run: a write
// replaces the whole entry, and an entry nobody touches again reaches no
// output. Allocation brackets and ACE's "defined" flag are deliberately
// not used — an uninitialised read consumes a flip too, so "unallocated"
// proves nothing.

// liveRange is the inclusive range of flip cycles [lo, hi] of one entry
// that a read is the first access to meet: the read at hi, and any reads
// before it, would consume the flip.
type liveRange struct{ lo, hi uint32 }

// liveSpan is a range as the recorder logs it, chained to the entry's
// previous one (1 + its index in the log; 0 ends the chain).
type liveSpan struct {
	prev int32
	liveRange
}

// liveCell is the recorder's scratch for one entry. The zero value is an
// untouched entry.
type liveCell struct {
	// next is the lowest flip cycle the entry's next access is the first
	// to meet: the last access's stamp + 1.
	next uint32
	// last is 1 + the log index of the entry's latest range, 0 for none.
	last int32
}

const (
	// livePageBits sizes the recorder's scratch pages: a page of cells is
	// allocated when the first of its entries is touched, so the scratch
	// is O(touched), not O(structure) — a flat slice per entry of the HD
	// 7970's 32 x 128 KiB, mostly untouched, measured 8 GiB over a figure
	// pass.
	livePageBits = 10
	// liveChunkBits sizes the chunks the log grows by; one growing slice
	// spent a tenth of a traced reference run in growslice.
	liveChunkBits = 15
)

// liveTrack records one structure of one reference run.
type liveTrack struct {
	units, perUnit int
	pages          [][]liveCell
	log            [][]liveSpan // chunks; index i is log[i>>liveChunkBits][i&(1<<liveChunkBits-1)]
	n              int32        // ranges logged
	// bad is set by an access the recorder cannot place (outside the
	// structure, a cycle beyond the stamp width, time running backwards);
	// the structure then gets no table and every fault in it is simulated.
	bad bool
}

func newLiveTrack(units, perUnit int) liveTrack {
	n := units * perUnit
	if n > math.MaxUint32 {
		return liveTrack{bad: true}
	}
	return liveTrack{
		units: units, perUnit: perUnit,
		pages: make([][]liveCell, (n+1<<livePageBits-1)>>livePageBits),
	}
}

// span returns range i-1 of the log.
func (t *liveTrack) span(i int32) *liveSpan {
	i--
	return &t.log[i>>liveChunkBits][i&(1<<liveChunkBits-1)]
}

func (t *liveTrack) access(unit, entry int, cycle int64, write bool) {
	if uint(unit) >= uint(t.units) || uint(entry) >= uint(t.perUnit) || uint64(cycle) >= math.MaxUint32 {
		t.bad = true
		return
	}
	key := unit*t.perUnit + entry
	page := t.pages[key>>livePageBits]
	if page == nil {
		page = make([]liveCell, 1<<livePageBits)
		t.pages[key>>livePageBits] = page
	}
	c := &page[key&(1<<livePageBits-1)]
	at := uint32(cycle)
	if at+1 < c.next {
		t.bad = true
	}
	if !write {
		// The latest range is extended when it ends at the access before
		// this one — a read, or the write of a read-then-write in one
		// cycle, after which the flip cycles this read is first to meet
		// follow on from it. A read in the cycle of a write before it is
		// first to meet nothing.
		var latest *liveSpan
		if c.last != 0 {
			latest = t.span(c.last)
		}
		if latest != nil && latest.hi+1 == c.next {
			latest.hi = at
		} else if c.next <= at {
			if int(t.n)>>liveChunkBits == len(t.log) {
				t.log = append(t.log, make([]liveSpan, 1<<liveChunkBits))
			}
			t.n++
			*t.span(t.n) = liveSpan{c.last, liveRange{c.next, at}}
			c.last = t.n
		}
	}
	c.next = at + 1
}

// table compacts the log into the retained form, walking the touched
// pages in entry order and each entry's chain once, and drops the
// scratch.
func (t *liveTrack) table() *liveTable {
	if t.bad {
		return nil
	}
	lt := &liveTable{units: t.units, perUnit: t.perUnit, spans: make([]liveRange, 0, t.n)}
	for pi, page := range t.pages {
		for i := range page {
			s := page[i].last
			if s == 0 {
				continue
			}
			first := len(lt.spans)
			lt.keys = append(lt.keys, uint32(pi<<livePageBits|i))
			lt.offs = append(lt.offs, uint32(first))
			for s != 0 {
				sp := t.span(s)
				lt.spans = append(lt.spans, sp.liveRange)
				s = sp.prev
			}
			slices.Reverse(lt.spans[first:]) // the chain runs latest first
		}
	}
	lt.offs = append(lt.offs, uint32(len(lt.spans)))
	lt.keys = slices.Clip(lt.keys)
	lt.offs = slices.Clip(lt.offs)
	*t = liveTrack{}
	return lt
}

// liveTable is the retained liveness of one structure: the entries that
// have a live span at all in ascending order, and per entry its spans,
// ascending and disjoint. 8 bytes per span plus 8 per such entry;
// immutable once built and shared read-only by every worker, like the
// ladder.
type liveTable struct {
	units, perUnit int
	keys           []uint32    // unit*perUnit + entry
	offs           []uint32    // spans[offs[i]:offs[i+1]] are keys[i]'s
	spans          []liveRange // [lo, hi], inclusive
}

// live reports whether a flip of the entry at the cycle is met first by a
// read. The caller has checked the ranges of all three.
func (lt *liveTable) live(unit, entry int, cycle uint32) bool {
	i, ok := slices.BinarySearch(lt.keys, uint32(unit*lt.perUnit+entry))
	if !ok {
		return false
	}
	sp := lt.spans[lt.offs[i]:lt.offs[i+1]]
	j := sort.Search(len(sp), func(j int) bool { return sp[j].hi >= cycle })
	return j < len(sp) && sp[j].lo <= cycle
}

// liveMap is the liveness of both structures over one reference run. A
// nil map, or a nil table in it, answers nothing: every fault there is
// simulated.
type liveMap [2]*liveTable

// dead reports that the fault provably never reaches a read, so that the
// faulty run is the golden run and the outcome Masked. Anything the map
// cannot answer is not dead.
func (m *liveMap) dead(f gpu.Fault) bool {
	if m == nil || f.Structure < 0 || int(f.Structure) >= len(m) {
		return false
	}
	lt := m[f.Structure]
	if lt == nil || uint(f.Unit) >= uint(lt.units) || uint(f.Entry) >= uint(lt.perUnit) || uint64(f.Cycle) >= math.MaxUint32 {
		return false
	}
	return !lt.live(f.Unit, f.Entry, uint32(f.Cycle))
}

// liveRecorder is the gpu.Tracer of a reference run.
type liveRecorder struct{ regs, local liveTrack }

func newLiveRecorder(chip *chips.Chip) *liveRecorder {
	return &liveRecorder{
		regs:  newLiveTrack(chip.Units, chip.StructSize(gpu.RegisterFile)),
		local: newLiveTrack(chip.Units, chip.StructSize(gpu.LocalMemory)),
	}
}

// liveMap ends the recording.
func (r *liveRecorder) liveMap() *liveMap {
	return &liveMap{gpu.RegisterFile: r.regs.table(), gpu.LocalMemory: r.local.table()}
}

// RegAccess implements gpu.Tracer.
func (r *liveRecorder) RegAccess(unit, entry int, cycle int64, write bool) {
	r.regs.access(unit, entry, cycle, write)
}

// LocalAccess implements gpu.Tracer: each byte is an entry.
func (r *liveRecorder) LocalAccess(unit, offset, size int, cycle int64, write bool) {
	for b := 0; b < size; b++ {
		r.local.access(unit, offset+b, cycle, write)
	}
}

// The allocation brackets carry no proof (see the top of the file).
func (*liveRecorder) RegAlloc(unit, base, count int, cycle int64)   {}
func (*liveRecorder) RegFree(unit, base, count int, cycle int64)    {}
func (*liveRecorder) LocalAlloc(unit, base, count int, cycle int64) {}
func (*liveRecorder) LocalFree(unit, base, count int, cycle int64)  {}
