package devices_test

import (
	"encoding/binary"
	"errors"
	"hash"
	"hash/fnv"
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/amdsim"
	"repro/internal/chips"
	"repro/internal/devices"
	"repro/internal/gpu"
	"repro/internal/nvsim"
	"repro/internal/workloads"
)

// vendorOf reads d's vendor from the simulator behind it: gpu.Device
// does not carry the chip.
func vendorOf(t *testing.T, d gpu.Device) gpu.Vendor {
	t.Helper()
	switch d := d.(type) {
	case *nvsim.Device:
		return d.Chip.Vendor
	case *amdsim.Device:
		return d.Chip.Vendor
	}
	t.Fatalf("%T is neither simulator", d)
	return 0
}

// eventHash is a tracer that folds every event into one FNV-1a hash and
// counts them.
type eventHash struct {
	h   hash.Hash64
	buf []byte
	n   int64
}

func newEventHash() *eventHash { return &eventHash{h: fnv.New64a()} }

func (e *eventHash) event(kind byte, unit, entry, n int, cycle int64, write bool) {
	b := append(e.buf[:0], kind)
	b = binary.LittleEndian.AppendUint64(b, uint64(unit))
	b = binary.LittleEndian.AppendUint64(b, uint64(entry))
	b = binary.LittleEndian.AppendUint64(b, uint64(n))
	b = binary.LittleEndian.AppendUint64(b, uint64(cycle))
	if write {
		b = append(b, 1)
	}
	e.h.Write(b)
	e.buf = b
	e.n++
}

func (e *eventHash) RegAccess(unit, base int, lanes uint64, cycle int64, write bool) {
	for ; lanes != 0; lanes &= lanes - 1 {
		e.event('r', unit, base+bits.TrailingZeros64(lanes), 1, cycle, write)
	}
}
func (e *eventHash) LocalAccess(unit, offset, size int, cycle int64, write bool) {
	e.event('l', unit, offset, size, cycle, write)
}
func (e *eventHash) RegAlloc(unit, base, count int, cycle int64) {
	e.event('a', unit, base, count, cycle, false)
}
func (e *eventHash) RegFree(unit, base, count int, cycle int64) {
	e.event('f', unit, base, count, cycle, false)
}
func (e *eventHash) LocalAlloc(unit, base, size int, cycle int64) {
	e.event('A', unit, base, size, cycle, false)
}
func (e *eventHash) LocalFree(unit, base, size int, cycle int64) {
	e.event('F', unit, base, size, cycle, false)
}

// run is everything one fault-free run shows of the device it ran on.
type run struct {
	stats   gpu.RunStats
	outputs [][]byte
	events  uint64
	// snaps holds the power-on snapshot, then every rung of a ladder
	// captured every rungEvery cycles. Snapshots are plain data (pages,
	// blocks, waves and statistics), so reflect.DeepEqual compares them.
	snaps []gpu.Snapshot
}

const rungEvery = 1024

// observe runs bench on d, which must be at power-on, and records it.
func observe(t *testing.T, d gpu.Device, bench *workloads.Benchmark) run {
	t.Helper()
	hp, err := bench.New(vendorOf(t, d))
	if err != nil {
		t.Fatal(err)
	}
	r := run{snaps: []gpu.Snapshot{d.Snapshot()}}
	tr := newEventHash()
	d.SetTracer(tr)
	d.SetCheckpointHook(0, func(s gpu.Snapshot) int64 {
		r.snaps = append(r.snaps, s)
		return s.Cycle() + rungEvery
	})
	if err := hp.Run(d); err != nil {
		t.Fatal(err)
	}
	r.stats, r.events = d.Stats(), tr.h.Sum64()
	for _, o := range hp.Outputs() {
		bs, err := d.Mem().ReadBytes(o.Addr, int(o.Size))
		if err != nil {
			t.Fatal(err)
		}
		r.outputs = append(r.outputs, bs)
	}
	return r
}

// dirty leaves on d what the engines leave on a device they are done
// with: a run of another benchmark with a ladder, a faulted run of it cut
// off by a 300-cycle watchdog, then a mid-run rung of that ladder
// restored and never resumed.
func dirty(t *testing.T, d gpu.Device, other *workloads.Benchmark) {
	t.Helper()
	hp, err := other.New(vendorOf(t, d))
	if err != nil {
		t.Fatal(err)
	}
	var ladder []gpu.Snapshot
	d.SetTracer(newEventHash())
	d.SetCheckpointHook(0, func(s gpu.Snapshot) int64 {
		ladder = append(ladder, s)
		return s.Cycle() + 100
	})
	if err := hp.Run(d); err != nil {
		t.Fatal(err)
	}
	d.Reset()
	d.SetWatchdog(300)
	// The last register of the last unit: a flip no benchmark reads, so
	// the run lasts until the watchdog cuts it.
	d.InjectFault(&gpu.Fault{
		Structure: gpu.RegisterFile, Unit: d.Units() - 1, Entry: d.StructSize(gpu.RegisterFile) - 1,
		Bit: 7, Cycle: 100,
	})
	if err := hp.Run(d); !errors.Is(err, gpu.ErrWatchdog) {
		t.Fatalf("faulted run of %s under a 300-cycle watchdog: %v, want %v", other.Name, err, gpu.ErrWatchdog)
	}
	if err := d.Restore(ladder[len(ladder)/2]); err != nil {
		t.Fatal(err)
	}
}

// TestResetDeviceBehavesLikeANewOne runs every benchmark on a new device,
// then on a pooled one that another benchmark's runs have dirtied (see
// dirty), and requires the two runs to be indistinguishable: statistics,
// output bytes, every tracer event, the power-on snapshot and every rung
// of a ladder captured by the same checkpoint hook.
func TestResetDeviceBehavesLikeANewOne(t *testing.T) {
	all := workloads.All()
	type target struct {
		chip  *chips.Chip
		bench int
	}
	var targets []target
	for _, chip := range []*chips.Chip{chips.MiniNVIDIA(), chips.MiniAMD()} {
		for i := range all {
			targets = append(targets, target{chip, i})
		}
	}
	if !testing.Short() {
		for _, chip := range []*chips.Chip{chips.HDRadeon7970(), chips.GeForceGTX480()} {
			for i, b := range all {
				if b.Name == "matrixMul" {
					targets = append(targets, target{chip, i})
				}
			}
		}
	}
	for _, tg := range targets {
		bench, other := all[tg.bench], all[(tg.bench+1)%len(all)]
		t.Run(tg.chip.Name+"/"+bench.Name, func(t *testing.T) {
			fresh, err := devices.New(tg.chip)
			if err != nil {
				t.Fatal(err)
			}
			want := observe(t, fresh, bench)

			d := acquire(t, tg.chip)
			dirty(t, d, other)
			devices.Release(tg.chip, d)
			if again := acquire(t, tg.chip); again != d {
				t.Fatal("the pool did not hand back the device just released")
			}
			got := observe(t, d, bench)
			devices.Release(tg.chip, d)

			if got.stats != want.stats {
				t.Errorf("stats %+v, on a new device %+v", got.stats, want.stats)
			}
			if len(got.outputs) != len(want.outputs) {
				t.Fatalf("%d output regions, on a new device %d", len(got.outputs), len(want.outputs))
			}
			for i := range got.outputs {
				if string(got.outputs[i]) != string(want.outputs[i]) {
					t.Errorf("output region %d differs from a new device's", i)
				}
			}
			if got.events != want.events {
				t.Errorf("tracer events hash %#x, on a new device %#x", got.events, want.events)
			}
			if len(got.snaps) != len(want.snaps) {
				t.Fatalf("%d snapshots, on a new device %d", len(got.snaps), len(want.snaps))
			}
			for i := range got.snaps {
				if !reflect.DeepEqual(got.snaps[i], want.snaps[i]) {
					t.Errorf("snapshot %d of %d (the power-on state, then the rungs) differs from a new device's", i, len(got.snaps))
				}
			}
		})
	}
}
