package gpu

import "unsafe"

const (
	pageSize = 4096 // 4 KiB COW granularity
	arenaPgs = 64   // pages per arena chunk (256 KiB)
)

// PageSize is the COW page granularity in bytes: every MemImage page
// (MemImage.Page) is exactly this long.
const PageSize = pageSize

// The canonical identities of an all-zero page, one per element type.
// Never written.
var (
	zeroPage  = make([]byte, pageSize)
	zeroWords = make([]uint32, pageSize/4)
)

// perPage is the page length in elements of T. The compiler folds it to
// a constant per instantiation, which Dirty, on the global-store path,
// needs: its divisions become shifts (4.6 against 6.1 ns a Store32).
func perPage[T byte | uint32]() int {
	var z T
	return pageSize / int(unsafe.Sizeof(z))
}

// zeroOf returns the canonical zero page of T.
func zeroOf[T byte | uint32]() []T {
	var z []T
	switch p := any(&z).(type) {
	case *[]byte:
		*p = zeroPage
	case *[]uint32:
		*p = zeroWords
	}
	return z
}

// Pages is a flat array of bytes or 32-bit words under copy-on-write at
// 4 KiB page granularity: device global memory (Memory) and every unit's
// register file and local memory (internal/simt) are each one of these.
//
// Per page it tracks the immutable image page the live data is currently
// identical to (its identity; nil = possibly written since the page was
// last captured, restored or zeroed). Capture shares pages that have an
// identity with the image that already holds them and copies only the
// others, Restore skips pages whose identity is already the image's, and
// Zero clears only pages that are not the canonical zero page — so a
// ladder rung and a restore cost the pages a run actually wrote.
//
// The data is written directly by its owner (Data); the owner calls
// Dirty for every range it may write before the next Capture, Restore
// or Zero. A write without it leaves a stale identity behind, and a
// later capture or restore silently keeps the wrong bytes.
type Pages[T byte | uint32] struct {
	data []T
	// src[p] is page p's identity. Invariant: src[p] != nil implies the
	// live page and src[p] hold the same elements (the tail of the final
	// page past len(data) counts as zero).
	src  [][]T
	zero []T // zeroOf[T]()
	// arena is where Capture takes the pages it copies into.
	arena *PageArena[T]
	// Cumulative Restore page accounting (see RestoreStats).
	copied, shared int64
}

// PageArena bump-allocates image pages in chunks, to keep capture from
// hitting the allocator once per page. The arrays of one device share one
// (a chunk lives as long as any image page cut from it: an arena per
// register file would pin a chunk per unit behind every ladder).
type PageArena[T byte | uint32] struct{ free []T }

// page returns a fresh zeroed page.
func (a *PageArena[T]) page() []T {
	per := perPage[T]()
	if len(a.free) < per {
		a.free = make([]T, arenaPgs*per)
	}
	pg := a.free[:per:per]
	a.free = a.free[per:]
	return pg
}

// NewPages returns n zeroed elements whose captures copy into arena;
// every page starts with the zero identity.
func NewPages[T byte | uint32](n int, arena *PageArena[T]) Pages[T] {
	p := Pages[T]{data: make([]T, n), zero: zeroOf[T](), arena: arena}
	p.src = make([][]T, p.PagesFor(n))
	for i := range p.src {
		p.src[i] = p.zero
	}
	return p
}

// Data returns the live array. It never moves.
func (p *Pages[T]) Data() []T { return p.data }

// NumPages returns the number of pages covering the array.
func (p *Pages[T]) NumPages() int { return len(p.src) }

// PagesFor returns the number of pages covering the first n elements.
func (p *Pages[T]) PagesFor(n int) int { return (n + perPage[T]() - 1) / perPage[T]() }

// Dirty drops the identities of the pages covering [off, off+n), n > 0.
// Callers bounds-check first.
func (p *Pages[T]) Dirty(off, n int) {
	per := uint(perPage[T]())
	for pg, last := uint(off)/per, uint(off+n-1)/per; pg <= last; pg++ {
		p.src[pg] = nil
	}
}

// samePage reports whether a and b are the same underlying page.
func samePage[T byte | uint32](a, b []T) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// live returns the live elements of page pg (short for a final partial
// page).
func (p *Pages[T]) live(pg int) []T {
	lo := pg * perPage[T]()
	return p.data[lo:min(lo+perPage[T](), len(p.data))]
}

// Capture returns the image of the first np pages and how many of them
// it had to copy. Pages with an identity are shared with the image that
// already holds them; the others are copied into arena storage and the
// copy becomes the live page's identity. Image pages are immutable and
// always a full page long.
func (p *Pages[T]) Capture(np int) (img [][]T, owned int) {
	img = make([][]T, np)
	for pg := range img {
		if p.src[pg] == nil {
			fresh := p.arena.page()
			copy(fresh, p.live(pg))
			p.src[pg] = fresh
			owned++
		}
		img[pg] = p.src[pg]
	}
	return img, owned
}

// Restore makes the first len(img) pages equal to img, skipping the ones
// whose identity already is the image's page — restoring to a nearby
// ladder rung touches only the pages that differ. Pages beyond the image
// are left alone (see Zero).
func (p *Pages[T]) Restore(img [][]T) {
	for pg, want := range img {
		if samePage(p.src[pg], want) {
			p.shared++
			continue
		}
		copy(p.live(pg), want)
		p.src[pg] = want
		p.copied++
	}
}

// Zero clears pages [from, to), touching only the ones that are not
// already the canonical zero page.
func (p *Pages[T]) Zero(from, to int) {
	for pg := from; pg < to; pg++ {
		if !samePage(p.src[pg], p.zero) {
			clear(p.live(pg))
			p.src[pg] = p.zero
		}
	}
}

// RestoreStats returns the cumulative number of pages Restore copied
// versus skipped via identity match since construction.
func (p *Pages[T]) RestoreStats() (copied, shared int64) { return p.copied, p.shared }
