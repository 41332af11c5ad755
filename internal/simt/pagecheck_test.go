package simt

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/gpu"
)

// Every test of this package — and so every capture and every restore any
// of them causes, on any device, in any goroutine — runs with pageCheck
// set: the proof that unit state on copy-on-write pages is the flat copy
// it replaced.
//
// At a capture the check takes the full deep copy the machine used to
// take and requires the page image to flatten to it. A page that differs
// was shared, not copied (a copy is of the array as it is now), so it
// kept its identity across a write: some store landed outside every
// window whose pages were dropped — the run-time twin of
// TestStoresStayInsideTheBlock. After a restore the arrays must be the
// flattened image, whatever the device ran before.
//
// A mismatch panics: these are states only a bug produces, and the
// captures of a golden run happen on goroutines no test owns.

// PageChecks counts the checks made, so a test can tell it was not
// vacuous.
var PageChecks struct{ Captures, Restores atomic.Int64 }

func init() {
	pageCheck = func(event string, unit int, s *unitStore, img *unitImage) {
		regs, local := s.regPages.Data(), s.localPages.Data()
		if event == "capture" {
			PageChecks.Captures.Add(1)
			regs, local = append([]uint32(nil), regs...), append([]byte(nil), local...)
		} else {
			PageChecks.Restores.Add(1)
		}
		mustMatch(event, unit, "register", flatten(img.regs, len(regs)), regs)
		mustMatch(event, unit, "local-memory", flatten(img.local, len(local)), local)
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

func mustMatch[T byte | uint32](event string, unit int, what string, image, array []T) {
	if slices.Equal(image, array) {
		return
	}
	if len(image) != len(array) {
		panic(fmt.Sprintf("simt: %s, unit %d: %s image holds %d entries, the array %d", event, unit, what, len(image), len(array)))
	}
	for i := range image {
		if image[i] != array[i] {
			panic(fmt.Sprintf("simt: %s, unit %d: %s entry %d is %#x in the page image and %#x in the array",
				event, unit, what, i, image[i], array[i]))
		}
	}
}

// Storage returns every unit's register file and local memory: the
// arrays themselves, for tests that need to see (or plant) an entry no
// accessor reaches.
func Storage(d gpu.Device) (regs [][]uint32, local [][]byte) {
	for _, s := range d.(interface{ stores() []*unitStore }).stores() {
		regs, local = append(regs, s.regPages.Data()), append(local, s.localPages.Data())
	}
	return regs, local
}

func (d *Device[W]) stores() []*unitStore {
	out := make([]*unitStore, len(d.units))
	for i, u := range d.units {
		out[i] = &u.unitStore
	}
	return out
}
