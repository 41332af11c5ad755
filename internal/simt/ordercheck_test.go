package simt

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// Every test of this package runs with orderCheck set: each time issue
// reads a unit's kept order, the order must be what a walk of the unit's
// slots returns now — the list issue rebuilt on every cycle before it
// kept one. A kept order that missed an event which changes the set of
// waves (a dispatch, an exit, a reset or restore of the slots) differs,
// and the check panics, as the page check does.

// OrderChecks counts the checks made, so a test can tell it was not
// vacuous.
var OrderChecks atomic.Int64

func init() {
	orderCheck = func(u any) { u.(interface{ checkOrder() }).checkOrder() }
}

func (u *Unit[W]) checkOrder() {
	OrderChecks.Add(1)
	if fresh := u.waves(nil); !slices.Equal(u.order, fresh) {
		panic(fmt.Sprintf("simt: issue, unit %d: the kept order (%d waves) is not the walk of the slots (%d waves)",
			u.ID, len(u.order), len(fresh)))
	}
}
