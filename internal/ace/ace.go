// Package ace records the liveness of the register file and of the
// local/shared memory over one fault-free run, on one gpu.Tracer, the
// Recorder: the ACE (Architecturally Correct Execution) analysis the
// paper compares against statistical fault injection, and the live
// fault sites that fault-site pruning answers sampled faults from.
//
// A live span of an entry is the flip cycles [last access + 1, read]: a
// flip then is met first by that read. An ACE interval is (last access,
// read] of an entry written since its allocation. Their lengths are
// equal, so the two sums part only on a read of an entry outside every
// allocation bracket or not written since its allocation: live, not ACE.
// Measure refuses a run with either, so the ACE it returns is the paper's
// first-order ACE, with no transitive or program-level masking — which is
// why (as the paper observes) it overestimates the register-file AVF
// measured by fault injection while matching the local-memory AVF
// closely.
//
// Recording is O(1) per lane batch whose entries move together (a warp's
// register operand, the bytes of an LDS word), else O(1) per entry it
// covers, and its state O(touched entries), on pages of 1,024 entries
// allocated by the first bracket or access that reaches them. Entries a
// batch moves together share one row: the next flip cycle, the flags and
// the open span's first cycle of all of them, until an access or a
// bracket names some of them apart and the row hands its state back. The
// per-entry path touches two hot fields, the next flip cycle and a flags
// byte, in arrays of their own, and both sums run as the trace arrives;
// the span state beside them is touched once per span. On the HD 7970,
// whose register file is 0.11–3.90 % occupied across the suite,
// NewRecorder allocates 72 KiB and Measure at most 2,633 KiB over the ten
// benchmarks, the simulation, the rows and the span log included
// (TestAnalyzerStateFollowsAllocation).
//
// Liveness retains the spans at the grain they were logged: an entry's
// own spans under its key, and a row's spans once, with the row's member
// set, for all of its entries. Over the paper's 40 (chip, benchmark)
// pairs that is 6.9 MB, where a copy of each row's span per member was
// 42.7 MB (TestLivenessTablesStaySmall), and the build scatters the log's
// records rather than their copies.
package ace

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/gpu"
)

// Entry flags.
const (
	allocated byte = 1 << iota // inside an allocation bracket
	defined                    // written since the bracket began
	open                       // the entry's latest span ends at its last access
)

const (
	// pageBits sizes the pages of per-entry state.
	pageBits = 10
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
	// chunkBits sizes the chunks the span log grows by; one growing
	// slice spent a tenth of a traced run in growslice.
	chunkBits = 12
	chunkMask = 1<<chunkBits - 1
	// rowTag marks a logged span as a row's: the key is then its index in
	// rows. Keys leave the top bit free (newTrack).
	rowTag = 1 << 31
)

// chain is the state of one entry's spans, touched once per span.
type chain struct {
	lo     uint32 // the open span's first cycle
	closed uint32 // spans logged under the entry's own key
	// rows counts, while a table builds, the retained rows whose first
	// entry this is, then holds their next place in key order; else 0.
	rows uint32
}

// page is the per-access state of pageSize consecutive entries; the zero
// value is an untouched, unallocated entry. It holds no pointer, so the
// garbage collector never scans it.
type page struct {
	// next is per entry the lowest flip cycle its next access is the
	// first to meet: the last access's stamp + 1.
	next  [pageSize]uint32
	flags [pageSize]byte
	// owner is the index in rows of the row that holds the entry's state
	// instead of next, flags and its chain's lo; 0 for none.
	owner [pageSize]int32
}

// row is the state that the entries of a lane batch share while batches
// name them together: entry key + l for each lane l in mask. It holds
// what each of them would hold, and the spans all of them closed while it
// held them. A row that logged a span is never reused, so its entries
// stay fixed; a dissolved row holds no open span.
type row struct {
	key      uint32
	mask     uint64 // bit 0 set, at least two lanes
	next, lo uint32
	closed   uint32 // spans logged under the row's tag
	flags    byte
}

// span is the inclusive range of flip cycles [lo, hi] of one entry that a
// read is the first access to meet.
type span struct{ lo, hi uint32 }

// logged is a closed span of the entry key (unit*perUnit + entry), or of
// every entry of row key&^rowTag.
type logged struct {
	key uint32
	span
}

// track records one structure (register file or local memory) across all
// units of the chip.
type track struct {
	units, perUnit int
	pages          []*page            // nil until a bracket or an access reaches one of its entries
	chains         []*[pageSize]chain // beside pages
	rows           []row              // rows[0] is unused, so that owner 0 is none
	free           []int32            // rows dissolved with no span logged, to reuse
	log            [][]logged         // chunks; index i is log[i>>chunkBits][i&chunkMask]
	n              int                // spans logged
	live           int64              // live entry-cycles: the summed lengths of the spans
	ace            int64              // ACE entry-cycles: the part of live that follows a write in the bracket
	stray          int64              // accesses outside an allocation bracket
	undefined      int64              // reads of an allocated entry not written since its allocation
	// lanes counts the entry accesses of the trace, and onRows those a
	// row recorded.
	lanes, onRows int64
	// bad is set by an access the recorder cannot place (outside the
	// structure, a cycle beyond the stamp width, time running backwards);
	// the structure then has no table and no ACE.
	bad bool
}

func newTrack(units, perUnit int) track {
	n := units * perUnit
	if n > math.MaxInt32 {
		return track{bad: true}
	}
	pages := (n + pageMask) >> pageBits
	return track{units: units, perUnit: perUnit, pages: make([]*page, pages), chains: make([]*[pageSize]chain, pages), rows: make([]row, 1)}
}

// newPage allocates the page of the key, out of the per-access path.
//
//go:noinline
func (t *track) newPage(key int) *page {
	p := new(page)
	t.pages[key>>pageBits] = p
	t.chains[key>>pageBits] = new([pageSize]chain)
	return p
}

// batch records an access at the cycle of entry base + l of the unit for
// each lane l set in lanes, in lane order. Where the entries lie in the
// unit and a row holds them or can form over them, that is one update of
// the row; otherwise each entry is recorded on its own.
func (t *track) batch(unit, base int, lanes uint64, cycle int64, write bool) {
	if lanes == 0 {
		return
	}
	if uint(unit) >= uint(t.units) || uint64(cycle) >= math.MaxUint32 {
		t.bad = true
		return
	}
	n := bits.OnesCount64(lanes)
	t.lanes += int64(n)
	if first := bits.TrailingZeros64(lanes); n > 1 && base+first >= 0 && base+63-bits.LeadingZeros64(lanes) < t.perUnit {
		if o := t.rowOf(unit*t.perUnit+base+first, lanes>>first); o != 0 {
			t.onRows += int64(n)
			t.recordRow(o, uint32(cycle), write, n)
			return
		}
	}
	for ; lanes != 0; lanes &= lanes - 1 {
		entry := base + bits.TrailingZeros64(lanes)
		if uint(entry) >= uint(t.perUnit) {
			t.bad = true
			continue
		}
		t.record(unit*t.perUnit+entry, uint32(cycle), write)
	}
}

// rowOf returns the row over entry key + l for each lane l in mask (bit 0
// set, the entries inside one unit): the one that holds them, else a new
// one if none of them has a row and all of them hold equal state; 0 for
// none.
func (t *track) rowOf(key int, mask uint64) int32 {
	if p := t.pages[key>>pageBits]; p != nil {
		if o := p.owner[key&pageMask]; o != 0 {
			if r := &t.rows[o]; r.key == uint32(key) && r.mask == mask {
				return o
			}
			return 0
		}
	}
	var r row
	for m := mask; m != 0; m &= m - 1 {
		k := key + bits.TrailingZeros64(m)
		p, i := t.pages[k>>pageBits], k&pageMask
		if p == nil {
			p = t.newPage(k)
		}
		lo := t.chains[k>>pageBits][i].lo
		switch {
		case p.owner[i] != 0:
			return 0
		case m == mask:
			r = row{key: uint32(key), mask: mask, next: p.next[i], lo: lo, flags: p.flags[i]}
		case p.next[i] != r.next || p.flags[i] != r.flags || r.flags&open != 0 && lo != r.lo:
			return 0
		}
	}
	o := int32(len(t.rows))
	if n := len(t.free); n > 0 {
		o, t.free = t.free[n-1], t.free[:n-1]
		t.rows[o] = r
	} else {
		t.rows = append(t.rows, r)
	}
	for m := mask; m != 0; m &= m - 1 {
		k := key + bits.TrailingZeros64(m)
		t.pages[k>>pageBits].owner[k&pageMask] = o
	}
	return o
}

// dissolve hands the state of row o back to its entries; the spans it
// logged stay the row's.
func (t *track) dissolve(o int32) {
	r := &t.rows[o]
	for m := r.mask; m != 0; m &= m - 1 {
		k := int(r.key) + bits.TrailingZeros64(m)
		p, i := t.pages[k>>pageBits], k&pageMask
		p.next[i], p.flags[i], p.owner[i] = r.next, r.flags, 0
		t.chains[k>>pageBits][i].lo = r.lo
	}
	r.flags = 0
	if r.closed == 0 {
		t.free = append(t.free, o)
	}
}

// step applies an access at stamp at to the state (next, flags) that n
// entries share, adding to the sums for each, and returns the stamp the
// state held before and whether the access opened or closed a span.
func (t *track) step(next *uint32, flags *byte, at uint32, write bool, n int64) (prev uint32, opened, closed bool) {
	f := *flags
	prev = *next
	// d is the flip cycles this access is the first to meet: 0 for one in
	// the cycle of the access before it.
	d := int64(at) + 1 - int64(prev)
	if d < 0 {
		t.bad = true // time running backwards
	}
	if f&allocated == 0 {
		// A well-formed simulator trace has none, so Measure fails on the
		// count (an access the device reports before its allocation would
		// otherwise only lower the AVF, quietly).
		t.stray += n
	}
	if write {
		// A write in a later cycle ends the open span; one in the cycle of
		// the read that ended it leaves it open, since the flip cycles a
		// read after it is first to meet follow on from that read.
		closed = f&open != 0 && d > 0
		if closed {
			f &^= open
		}
		f |= defined
	} else {
		switch f & (allocated | defined) {
		case allocated | defined:
			t.ace += d * n
		case allocated:
			t.undefined += n
		}
		t.live += d * n
		opened = f&open == 0 && d > 0
		if opened {
			f |= open
		}
	}
	*flags, *next = f, at+1
	return prev, opened, closed
}

// record is one entry's access past its checks: key is inside the
// structure and at inside the stamp width.
func (t *track) record(key int, at uint32, write bool) {
	p := t.pages[key>>pageBits]
	if p == nil {
		p = t.newPage(key)
	}
	i := key & pageMask
	if o := p.owner[i]; o != 0 {
		t.dissolve(o)
	}
	prev, opened, closed := t.step(&p.next[i], &p.flags[i], at, write, 1)
	ch := &t.chains[key>>pageBits][i]
	switch {
	case opened:
		ch.lo = prev
	case closed:
		t.logSpan(uint32(key), span{ch.lo, prev - 1})
		ch.closed++
	}
}

// recordRow is record for the n entries of row o at once.
func (t *track) recordRow(o int32, at uint32, write bool, n int) {
	r := &t.rows[o]
	prev, opened, closed := t.step(&r.next, &r.flags, at, write, int64(n))
	switch {
	case opened:
		r.lo = prev
	case closed:
		t.logSpan(rowTag|uint32(o), span{r.lo, prev - 1})
		r.closed++
	}
}

// logSpan appends a closed span to the log.
func (t *track) logSpan(key uint32, s span) {
	if t.n>>chunkBits == len(t.log) {
		t.log = append(t.log, make([]logged, 1<<chunkBits))
	}
	t.log[t.n>>chunkBits][t.n&chunkMask] = logged{key, s}
	t.n++
}

// bracket sets the flags of entries [base, base+count) of the unit to
// set, keeping their span state: brackets never change a span. A row it
// covers whole takes the flags; one it covers in part is dissolved first.
// A bracket outside the unit is ignored; accesses to it are stray or
// cannot be placed.
func (t *track) bracket(unit, base, count int, set byte) {
	if uint(unit) >= uint(t.units) || base < 0 || count < 0 || base+count > t.perUnit {
		return
	}
	start := unit*t.perUnit + base
	end := start + count
	for key := start; count > 0; {
		p := t.pages[key>>pageBits]
		if p == nil && set != 0 {
			p = t.newPage(key)
		}
		from := key & pageMask
		to := min(from+count, pageSize)
		if p != nil {
			for i := from; i < to; i++ {
				if o := p.owner[i]; o != 0 {
					r := &t.rows[o]
					if last := int(r.key) + 63 - bits.LeadingZeros64(r.mask); int(r.key) >= start && last < end {
						r.flags = r.flags&open | set
					} else {
						t.dissolve(o)
					}
				}
				p.flags[i] = p.flags[i]&open | set
			}
		}
		key += to - from
		count -= to - from
	}
}

// entryCycles returns the structure's ACE entry-cycles, or why the run
// has none.
func (t *track) entryCycles(st gpu.Structure) (int64, error) {
	switch {
	case t.bad:
		return 0, fmt.Errorf("ace: %v: an access the recorder cannot place", st)
	case t.stray != 0:
		return 0, fmt.Errorf("ace: %v: %d accesses outside an allocation bracket", st, t.stray)
	case t.undefined != 0:
		return 0, fmt.Errorf("ace: %v: %d reads of an entry not written since its allocation", st, t.undefined)
	}
	return t.ace, nil
}

// ownOpen is 1 where entry i of page p holds an open span on its own,
// not through a row.
func ownOpen(p *page, i int) uint32 {
	if p.owner[i] == 0 && p.flags[i]&open != 0 {
		return 1
	}
	return 0
}

// rowSpans returns the number of spans row r retains: those it logged,
// and the open one while it holds its entries.
func rowSpans(r *row) uint32 {
	if r.flags&open != 0 {
		return r.closed + 1
	}
	return r.closed
}

// table compacts the recording into the retained form: the spans at the
// grain they were recorded, each entry's own and each row's once.
//
// The rows that retain spans are counted at their first entry; a walk of
// the touched pages in entry order counts the entries' own spans and
// turns the row counts into places, so the rows land in key order, the
// lookup's order. The rows' spans follow
// the entries'; a second walk lays out the entries', and every count of
// closed spans becomes a cursor. The log, in time order, is scattered
// through the cursors, so every span list lands ascending; an open span,
// the latest, goes last. The counts are restored, so recording can go on.
func (t *track) table() *Table {
	if t.bad {
		return nil
	}
	nrows := 0
	for o := 1; o < len(t.rows); o++ {
		if r := &t.rows[o]; rowSpans(r) != 0 {
			t.chains[r.key>>pageBits][r.key&pageMask].rows++
			nrows++
		}
	}
	nkeys, n, at := 0, uint32(0), uint32(0)
	for pi, p := range t.pages {
		if p == nil {
			continue
		}
		for i := range t.chains[pi] {
			ch := &t.chains[pi][i]
			if own := ch.closed + ownOpen(p, i); own != 0 {
				nkeys++
				n += own
			}
			if c := ch.rows; c != 0 {
				ch.rows, at = at, at+c
			}
		}
	}
	held := make([]int32, nrows)
	for o := 1; o < len(t.rows); o++ {
		if r := &t.rows[o]; rowSpans(r) != 0 {
			ch := &t.chains[r.key>>pageBits][r.key&pageMask]
			held[ch.rows] = int32(o)
			ch.rows++
		}
	}
	lt := &Table{units: t.units, perUnit: t.perUnit, live: t.live, ace: t.ace,
		keys: make([]uint32, 0, nkeys), offs: make([]uint32, nkeys+len(held)+1), rowAt: make([]uint32, len(held)), rowMask: make([]uint64, len(held)),
		blocks: make([]uint64, (t.units*t.perUnit+(64<<blockBits)-1)>>(6+blockBits))}
	for j, o := range held {
		r := &t.rows[o]
		t.chains[r.key>>pageBits][r.key&pageMask].rows = 0
		reach := uint32(63 - bits.LeadingZeros64(r.mask))
		lt.reach = max(lt.reach, reach)
		lt.mark(r.key, r.key+reach)
		lt.rowAt[j], lt.rowMask[j] = r.key, r.mask
		lt.offs[nkeys+j+1] = rowSpans(r)
	}
	lt.offs[nkeys] = n
	for j := nkeys + 1; j < len(lt.offs); j++ {
		lt.offs[j] += lt.offs[j-1]
	}
	lt.spans = make([]span, lt.offs[len(lt.offs)-1])
	for j, o := range held {
		r := &t.rows[o]
		if r.flags&open != 0 {
			lt.spans[lt.offs[nkeys+j+1]-1] = span{r.lo, r.next - 1}
		}
		r.closed = lt.offs[nkeys+j]
	}
	n = 0
	for pi, p := range t.pages {
		if p == nil {
			continue
		}
		for i := range t.chains[pi] {
			ch := &t.chains[pi][i]
			if own := ch.closed + ownOpen(p, i); own != 0 {
				lt.offs[len(lt.keys)] = n
				lt.keys = append(lt.keys, uint32(pi<<pageBits|i))
				lt.mark(uint32(pi<<pageBits|i), uint32(pi<<pageBits|i))
				ch.closed = n
				n += own
			}
		}
	}
	for j := range t.n {
		l := &t.log[j>>chunkBits][j&chunkMask]
		if l.key&rowTag == 0 {
			ch := &t.chains[l.key>>pageBits][l.key&pageMask]
			lt.spans[ch.closed] = l.span
			ch.closed++
			continue
		}
		r := &t.rows[l.key&^rowTag]
		lt.spans[r.closed] = l.span
		r.closed++
	}
	for j, o := range held {
		t.rows[o].closed -= lt.offs[nkeys+j]
	}
	for k, key := range lt.keys {
		p, i := t.pages[key>>pageBits], int(key&pageMask)
		ch := &t.chains[key>>pageBits][i]
		if ownOpen(p, i) != 0 {
			lt.spans[ch.closed] = span{ch.lo, p.next[i] - 1}
		}
		ch.closed -= lt.offs[k]
	}
	return lt
}

// Recorder is the gpu.Tracer of a fault-free run, indexed by
// gpu.Structure: it sums the run's live and ACE entry-cycles as the trace
// arrives and records per touched entry the live spans fault-site pruning
// searches.
type Recorder [2]track

// NewRecorder builds a recorder for a device's structure geometry.
func NewRecorder(d gpu.Device) *Recorder {
	return &Recorder{gpu.RegisterFile: newTrack(d.Units(), d.StructSize(gpu.RegisterFile)),
		gpu.LocalMemory: newTrack(d.Units(), d.StructSize(gpu.LocalMemory))}
}

// RegAccess implements gpu.Tracer.
func (r *Recorder) RegAccess(unit, base int, lanes uint64, cycle int64, write bool) {
	r[gpu.RegisterFile].batch(unit, base, lanes, cycle, write)
}

// LocalAccess implements gpu.Tracer: each byte is an entry, and the bytes
// of an access are a batch, 64 at a time.
func (r *Recorder) LocalAccess(unit, offset, size int, cycle int64, write bool) {
	for ; size > 0; offset, size = offset+64, size-64 {
		r[gpu.LocalMemory].batch(unit, offset, ^uint64(0)>>(64-min(size, 64)), cycle, write)
	}
}

// RegAlloc, RegFree, LocalAlloc and LocalFree implement gpu.Tracer.
func (r *Recorder) RegAlloc(unit, base, n int, _ int64) {
	r[gpu.RegisterFile].bracket(unit, base, n, allocated)
}
func (r *Recorder) RegFree(unit, base, n int, _ int64) {
	r[gpu.RegisterFile].bracket(unit, base, n, 0)
}
func (r *Recorder) LocalAlloc(unit, base, n int, _ int64) {
	r[gpu.LocalMemory].bracket(unit, base, n, allocated)
}
func (r *Recorder) LocalFree(unit, base, n int, _ int64) {
	r[gpu.LocalMemory].bracket(unit, base, n, 0)
}

// Liveness compacts what the recorder holds into the tables fault-site
// pruning searches.
func (r *Recorder) Liveness() *Liveness {
	return &Liveness{r[gpu.RegisterFile].table(), r[gpu.LocalMemory].table()}
}

var _ gpu.Tracer = (*Recorder)(nil)

// Table is the retained liveness of one structure, at the grain the
// recorder logged it: the entries that closed or hold open a span on
// their own, in ascending order, each with those spans, and the rows that
// did, each with its member set and the spans every member shares. Each
// list is ascending; an entry's spans, its own and its rows', are disjoint
// and maximal. 8 bytes per span, 8 per such entry, 16 per such row and a
// bit per 64 entries of the structure; immutable once built and shared
// read-only by every worker.
type Table struct {
	units, perUnit int
	keys           []uint32 // unit*perUnit + entry
	// Row j's members are entry rowAt[j] + l for each lane l in
	// rowMask[j]; rowAt is ascending, so the rows that can hold an entry
	// sit together, and reach is the widest row's distance from its first
	// entry to its last.
	rowAt   []uint32
	rowMask []uint64
	reach   uint32
	// offs delimits the span lists: spans[offs[i]:offs[i+1]] are keys[i]'s,
	// and spans[offs[len(keys)+j]:offs[len(keys)+j+1]] are row j's.
	offs  []uint32
	spans []span
	// blocks has bit b set where entries [b<<blockBits, (b+1)<<blockBits)
	// may hold a span: the lookup of any other entry ends at the bit.
	blocks    []uint64
	live, ace int64 // the recorder's sums
}

// blockBits sizes the blocks of entries a table marks as holding spans.
const blockBits = 6

// mark sets the bits of the blocks of entries [from, to].
func (lt *Table) mark(from, to uint32) {
	for b := from >> blockBits; b <= to>>blockBits; b++ {
		lt.blocks[b>>6] |= 1 << (b & 63)
	}
}

// holds reports whether span list i has a span containing cycle at.
func (lt *Table) holds(i int, at uint32) bool {
	sp := lt.spans[lt.offs[i]:lt.offs[i+1]]
	j := sort.Search(len(sp), func(j int) bool { return sp[j].hi >= at })
	return j < len(sp) && sp[j].lo <= at
}

// covers reports whether a span of entry key, its own or one of its
// rows', contains cycle at. The rows that can hold the entry begin at
// most reach before it.
func (lt *Table) covers(key, at uint32) bool {
	if b := key >> blockBits; lt.blocks[b>>6]>>(b&63)&1 == 0 {
		return false
	}
	if i, ok := slices.BinarySearch(lt.keys, key); ok && lt.holds(i, at) {
		return true
	}
	j, _ := slices.BinarySearch(lt.rowAt, key+1)
	for j--; j >= 0 && key-lt.rowAt[j] <= lt.reach; j-- {
		if lt.rowMask[j]>>(key-lt.rowAt[j])&1 != 0 && lt.holds(len(lt.keys)+j, at) {
			return true
		}
	}
	return false
}

// EntryCycles returns the structure's live and ACE entry-cycles over the
// run; they are equal unless a read met an entry outside a bracket or
// not written since its allocation.
func (lt *Table) EntryCycles() (live, ace int64) { return lt.live, lt.ace }

// Liveness is the liveness of both structures over one run, indexed by
// gpu.Structure. A nil Liveness, or a nil table in it, answers nothing.
type Liveness [2]*Table

// Dead reports that the fault provably never reaches a read, so that the
// faulty run is the fault-free run. Anything the tables cannot answer is
// not dead.
func (m *Liveness) Dead(f gpu.Fault) bool {
	if m == nil || f.Structure < 0 || int(f.Structure) >= len(m) {
		return false
	}
	lt := m[f.Structure]
	if lt == nil || uint(f.Unit) >= uint(lt.units) || uint(f.Entry) >= uint(lt.perUnit) || uint64(f.Cycle) >= math.MaxUint32 {
		return false
	}
	return !lt.covers(uint32(f.Unit*lt.perUnit+f.Entry), uint32(f.Cycle))
}

// Measure runs the host program once on the device with a Recorder and
// returns the ACE AVFs of both structures — ACE entry-cycles over the
// entry-cycles of the whole chip structure — plus the run statistics.
// The device must be freshly reset.
func Measure(d gpu.Device, hp *gpu.HostProgram) (regAVF, localAVF float64, st gpu.RunStats, err error) {
	r := NewRecorder(d)
	d.SetTracer(r)
	if err = hp.Run(d); err != nil {
		return 0, 0, st, fmt.Errorf("ace: golden run failed: %w", err)
	}
	d.SetTracer(nil)
	st = d.Stats()
	if st.Cycles <= 0 {
		return 0, 0, st, fmt.Errorf("ace: non-positive cycle count %d", st.Cycles)
	}
	if regAVF, err = r.AVF(gpu.RegisterFile, st.Cycles); err != nil {
		return 0, 0, st, err
	}
	if localAVF, err = r.AVF(gpu.LocalMemory, st.Cycles); err != nil {
		return 0, 0, st, err
	}
	return regAVF, localAVF, st, nil
}

// AVF returns the structure's ACE AVF over a run of the given cycles:
// its ACE entry-cycles over the entry-cycles of the whole chip structure.
// It fails where the run has no ACE (see entryCycles) and on an AVF out
// of [0,1].
func (r *Recorder) AVF(st gpu.Structure, cycles int64) (float64, error) {
	t := &r[st]
	n, err := t.entryCycles(st)
	if err != nil {
		return 0, err
	}
	total := float64(t.units*t.perUnit) * float64(cycles)
	if total == 0 {
		return 0, fmt.Errorf("ace: empty structure %v", st)
	}
	avf := float64(n) / total
	if avf > 1 {
		return 0, fmt.Errorf("ace: %v AVF %v out of [0,1]", st, avf)
	}
	return avf, nil
}
