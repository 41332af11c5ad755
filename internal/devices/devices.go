// Package devices constructs the right simulator for a chip
// configuration: nvsim for NVIDIA chips (the GUFI substrate) and amdsim
// for AMD chips (the SIFI substrate). Every golden run and injector
// replica takes its device from Acquire and gives it back with Release:
// building one zeroes all of its memories, a Reset only the pages a run
// wrote. The pool is a free list capped at GOMAXPROCS idle devices per
// chip configuration, not a sync.Pool, which keeps more devices live
// (DESIGN.md "Workloads, chips and devices").
package devices

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/amdsim"
	"repro/internal/chips"
	"repro/internal/gpu"
	"repro/internal/nvsim"
)

// New creates a simulated device for the chip.
func New(chip *chips.Chip) (gpu.Device, error) {
	switch chip.Vendor {
	case gpu.NVIDIA:
		return nvsim.New(chip)
	case gpu.AMD:
		return amdsim.New(chip)
	default:
		return nil, fmt.Errorf("devices: unknown vendor %v", chip.Vendor)
	}
}

// pool holds the idle devices, keyed by the whole chip configuration: two
// chips that share a name but differ in any field (a GTO scheduler, a
// different unit count) never share a device.
var pool = struct {
	sync.Mutex
	idle map[chips.Chip][]gpu.Device
}{idle: map[chips.Chip][]gpu.Device{}}

// builds counts the devices Acquire constructed.
var builds atomic.Int64

// Acquire returns a device for the chip in power-on state: the idle one
// released last, or a new one. The caller owns it until Release.
func Acquire(chip *chips.Chip) (gpu.Device, error) {
	pool.Lock()
	idle := pool.idle[*chip]
	if n := len(idle); n > 0 {
		d := idle[n-1]
		idle[n-1] = nil
		pool.idle[*chip] = idle[:n-1]
		pool.Unlock()
		return d, nil
	}
	pool.Unlock()
	own := *chip // a caller editing its chip later cannot change the device
	d, err := New(&own)
	if err == nil {
		builds.Add(1)
	}
	return d, err
}

// Release resets a device Acquire returned for the chip, which drops what
// its last run left attached (tracer, checkpoint hook, the ladder pages it
// was restored from), and keeps it unless GOMAXPROCS devices of the chip
// are idle already.
func Release(chip *chips.Chip, d gpu.Device) {
	d.Reset()
	pool.Lock()
	defer pool.Unlock()
	if idle := pool.idle[*chip]; len(idle) < runtime.GOMAXPROCS(0) {
		pool.idle[*chip] = append(idle, d)
	}
}
