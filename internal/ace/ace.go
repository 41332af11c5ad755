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
// Recording is O(1) per access and its state O(touched entries), on
// pages of 1,024 entries allocated by the first bracket or access that
// reaches them. The per-access path touches two hot fields per entry, the
// next flip cycle and a flags byte, in arrays of their own, and both sums
// run as the trace arrives. Only a recorder that keeps spans
// (NewRecorder, for pruning; Measure keeps none) has the cold fields,
// touched once per span. On the HD 7970, whose register file is
// 0.11–3.90 % occupied across the suite, NewRecorder allocates 36 KiB and
// Measure at most 651 KiB over the ten benchmarks, the simulation
// included (TestAnalyzerStateFollowsAllocation).
package ace

import (
	"fmt"
	"math"
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
)

// chain is the state of one entry's spans, touched once per span.
type chain struct {
	lo     uint32 // the open span's first cycle
	closed uint32 // spans logged
}

// page is the per-access state of pageSize consecutive entries; the zero
// value is an untouched, unallocated entry. It holds no pointer, so the
// garbage collector never scans it.
type page struct {
	// next is per entry the lowest flip cycle its next access is the
	// first to meet: the last access's stamp + 1.
	next  [pageSize]uint32
	flags [pageSize]byte
}

// span is the inclusive range of flip cycles [lo, hi] of one entry that a
// read is the first access to meet.
type span struct{ lo, hi uint32 }

// logged is a closed span of the entry key (unit*perUnit + entry).
type logged struct {
	key uint32
	span
}

// track records one structure (register file or local memory) across all
// units of the chip.
type track struct {
	units, perUnit int
	keep           bool               // log spans for a table, not only sum them
	pages          []*page            // nil until a bracket or an access reaches one of its entries
	chains         []*[pageSize]chain // beside pages, if the track keeps spans
	log            [][]logged         // chunks; index i is log[i>>chunkBits][i&chunkMask]
	n              int                // spans logged
	spans, entries int                // spans opened, and entries that opened one
	live           int64              // live entry-cycles: the summed lengths of the spans
	ace            int64              // ACE entry-cycles: the part of live that follows a write in the bracket
	stray          int64              // accesses outside an allocation bracket
	undefined      int64              // reads of an allocated entry not written since its allocation
	// bad is set by an access the recorder cannot place (outside the
	// structure, a cycle beyond the stamp width, time running backwards);
	// the structure then has no table and no ACE.
	bad bool
}

func newTrack(units, perUnit int, keep bool) track {
	n := units * perUnit
	if n > math.MaxUint32 {
		return track{bad: true}
	}
	t := track{units: units, perUnit: perUnit, keep: keep, pages: make([]*page, (n+pageMask)>>pageBits)}
	if keep {
		t.chains = make([]*[pageSize]chain, len(t.pages))
	}
	return t
}

// newPage allocates the page of the key, out of the per-access path.
//
//go:noinline
func (t *track) newPage(key int) *page {
	p := new(page)
	t.pages[key>>pageBits] = p
	if t.keep {
		t.chains[key>>pageBits] = new([pageSize]chain)
	}
	return p
}

func (t *track) access(unit, entry int, cycle int64, write bool) {
	if uint(unit) >= uint(t.units) || uint(entry) >= uint(t.perUnit) || uint64(cycle) >= math.MaxUint32 {
		t.bad = true
		return
	}
	key := unit*t.perUnit + entry
	p := t.pages[key>>pageBits]
	if p == nil {
		p = t.newPage(key)
	}
	i := key & pageMask
	at, f := uint32(cycle), p.flags[i]
	// d is the flip cycles this access is the first to meet: 0 for one in
	// the cycle of the access before it.
	d := int64(at) + 1 - int64(p.next[i])
	if d < 0 {
		t.bad = true // time running backwards
	}
	if f&allocated == 0 {
		// A well-formed simulator trace has none, so Measure fails on the
		// count (an access the device reports before its allocation would
		// otherwise only lower the AVF, quietly).
		t.stray++
	}
	if write {
		// A write in a later cycle ends the open span; one in the cycle of
		// the read that ended it leaves it open, since the flip cycles a
		// read after it is first to meet follow on from that read.
		if f&open != 0 && d > 0 {
			f &^= open
			if t.keep {
				t.close(p, key)
			}
		}
		p.flags[i] = f | defined
	} else {
		switch f & (allocated | defined) {
		case allocated | defined:
			t.ace += d
		case allocated:
			t.undefined++
		}
		t.live += d
		if f&open == 0 && d > 0 {
			p.flags[i] = f | open
			if t.keep {
				t.open(p, key)
			}
		}
	}
	p.next[i] = at + 1
}

// open starts a span of the entry key.
func (t *track) open(p *page, key int) {
	ch := &t.chains[key>>pageBits][key&pageMask]
	if ch.closed == 0 {
		t.entries++
	}
	t.spans++
	ch.lo = p.next[key&pageMask]
}

// close logs the open span of the entry key.
func (t *track) close(p *page, key int) {
	if t.n>>chunkBits == len(t.log) {
		t.log = append(t.log, make([]logged, 1<<chunkBits))
	}
	ch := &t.chains[key>>pageBits][key&pageMask]
	t.log[t.n>>chunkBits][t.n&chunkMask] = logged{uint32(key), span{ch.lo, p.next[key&pageMask] - 1}}
	t.n++
	ch.closed++
}

// bracket sets the flags of entries [base, base+count) of the unit to
// set, keeping their span state: brackets never change a span. A bracket
// outside the unit is ignored; accesses to it are stray or cannot be
// placed.
func (t *track) bracket(unit, base, count int, set byte) {
	if uint(unit) >= uint(t.units) || base < 0 || count < 0 || base+count > t.perUnit {
		return
	}
	for key := unit*t.perUnit + base; count > 0; {
		p := t.pages[key>>pageBits]
		if p == nil && set != 0 {
			p = t.newPage(key)
		}
		from := key & pageMask
		to := min(from+count, pageSize)
		if p != nil {
			for i := from; i < to; i++ {
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

// table compacts the recording into the retained form. A walk of the
// touched pages in entry order lays out each entry's spans and turns its
// count of closed spans into a cursor; the log, in time order, is then
// scattered through the cursors, so each entry's spans land ascending;
// the open span, the latest, goes last, and the counts are restored.
func (t *track) table() *Table {
	if t.bad || !t.keep {
		return nil
	}
	lt := &Table{units: t.units, perUnit: t.perUnit, live: t.live, ace: t.ace,
		keys: make([]uint32, 0, t.entries), offs: make([]uint32, 0, t.entries+1), spans: make([]span, t.spans)}
	n := uint32(0)
	for pi, p := range t.pages {
		if p == nil {
			continue
		}
		for i := range t.chains[pi] {
			ch := &t.chains[pi][i]
			if ch.closed == 0 && p.flags[i]&open == 0 {
				continue
			}
			lt.keys = append(lt.keys, uint32(pi<<pageBits|i))
			lt.offs = append(lt.offs, n)
			n += ch.closed
			if p.flags[i]&open != 0 {
				n++
			}
			ch.closed = lt.offs[len(lt.offs)-1]
		}
	}
	lt.offs = append(lt.offs, n)
	for j := range t.n {
		l := &t.log[j>>chunkBits][j&chunkMask]
		ch := &t.chains[l.key>>pageBits][l.key&pageMask]
		lt.spans[ch.closed] = l.span
		ch.closed++
	}
	for k, key := range lt.keys {
		p, i := t.pages[key>>pageBits], key&pageMask
		ch := &t.chains[key>>pageBits][i]
		if p.flags[i]&open != 0 {
			lt.spans[ch.closed] = span{ch.lo, p.next[i] - 1}
		}
		ch.closed -= lt.offs[k]
	}
	return lt
}

// Recorder is the gpu.Tracer of a fault-free run, indexed by
// gpu.Structure: it sums the run's live and ACE entry-cycles as the trace
// arrives and, made by NewRecorder, records per touched entry the live
// spans fault-site pruning searches.
type Recorder [2]track

// NewRecorder builds a recorder for a device's structure geometry.
func NewRecorder(d gpu.Device) *Recorder { return newRecorder(d, true) }

// newRecorder builds a recorder that, unless keep, only sums: its
// Liveness has no tables.
func newRecorder(d gpu.Device, keep bool) *Recorder {
	return &Recorder{gpu.RegisterFile: newTrack(d.Units(), d.StructSize(gpu.RegisterFile), keep),
		gpu.LocalMemory: newTrack(d.Units(), d.StructSize(gpu.LocalMemory), keep)}
}

// RegAccess implements gpu.Tracer.
func (r *Recorder) RegAccess(unit, entry int, cycle int64, write bool) {
	r[gpu.RegisterFile].access(unit, entry, cycle, write)
}

// LocalAccess implements gpu.Tracer: each byte is an entry.
func (r *Recorder) LocalAccess(unit, offset, size int, cycle int64, write bool) {
	for b := 0; b < size; b++ {
		r[gpu.LocalMemory].access(unit, offset+b, cycle, write)
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

// Table is the retained liveness of one structure: the entries that have
// a live span at all in ascending order, and per entry its spans,
// ascending, disjoint and maximal. 8 bytes per span plus 8 per such
// entry; immutable once built and shared read-only by every worker.
type Table struct {
	units, perUnit int
	keys           []uint32 // unit*perUnit + entry
	offs           []uint32 // spans[offs[i]:offs[i+1]] are keys[i]'s
	spans          []span
	live, ace      int64 // the recorder's sums
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
	i, ok := slices.BinarySearch(lt.keys, uint32(f.Unit*lt.perUnit+f.Entry))
	if !ok {
		return true
	}
	sp, at := lt.spans[lt.offs[i]:lt.offs[i+1]], uint32(f.Cycle)
	j := sort.Search(len(sp), func(j int) bool { return sp[j].hi >= at })
	return j == len(sp) || sp[j].lo > at
}

// Measure runs the host program once on the device with a Recorder and
// returns the ACE AVFs of both structures — ACE entry-cycles over the
// entry-cycles of the whole chip structure — plus the run statistics.
// The device must be freshly reset.
func Measure(d gpu.Device, hp *gpu.HostProgram) (regAVF, localAVF float64, st gpu.RunStats, err error) {
	r := newRecorder(d, false)
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
