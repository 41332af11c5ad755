package gpu

import (
	"math/rand"
	"slices"
	"testing"
)

// TestPagesWordsDifferential drives a register-file-shaped Pages — words,
// a last page that is not full — and a flat reference through the same
// random schedule of writes, captures, restores and zeroings, and
// requires the same array after every step and images that flatten to
// the reference's copies.
func TestPagesWordsDifferential(t *testing.T) {
	const n = 3*1024 + 100
	rng := rand.New(rand.NewSource(23))
	p := NewPages(n, new(PageArena[uint32]))
	ref := make([]uint32, n)
	type pair struct {
		img  [][]uint32
		flat []uint32
	}
	var snaps []pair
	for step := 0; step < 600; step++ {
		switch op := rng.Intn(10); {
		case op < 6:
			off, k := rng.Intn(n), 1+rng.Intn(40)
			k = min(k, n-off)
			p.Dirty(off, k)
			for i := off; i < off+k; i++ {
				p.Data()[i] = rng.Uint32()
				ref[i] = p.Data()[i]
			}
		case op < 8:
			img, owned := p.Capture(p.NumPages())
			if again, second := p.Capture(p.NumPages()); second != 0 || !samePage(again[0], img[0]) {
				t.Fatalf("step %d: a capture right after a capture copied %d pages", step, second)
			}
			if owned > p.NumPages() || len(img[p.NumPages()-1]) != 1024 {
				t.Fatalf("step %d: %d owned pages, last page of %d entries", step, owned, len(img[p.NumPages()-1]))
			}
			snaps = append(snaps, pair{img, slices.Clone(ref)})
		case op < 9 && len(snaps) > 0:
			s := snaps[rng.Intn(len(snaps))]
			p.Restore(s.img)
			copy(ref, s.flat)
		default:
			p.Zero(0, p.NumPages())
			clear(ref)
		}
		if !slices.Equal(p.Data(), ref) {
			t.Fatalf("step %d: array differs from the flat reference", step)
		}
	}
	for i, s := range snaps {
		if !slices.Equal(flatten(s.img, n), s.flat) {
			t.Fatalf("image %d does not flatten to the array it was captured from", i)
		}
	}
}

// flatten returns the first n elements of a page image: the flat array
// the pages were captured from.
func flatten[T byte | uint32](img [][]T, n int) []T {
	var flat []T
	for _, pg := range img {
		k := min(len(pg), n)
		flat = append(flat, pg[:k]...)
		n -= k
	}
	return flat
}
