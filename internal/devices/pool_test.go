package devices_test

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/chips"
	"repro/internal/devices"
	"repro/internal/experiment"
	"repro/internal/gpu"
	"repro/internal/workloads"
)

// testChip returns a Mini NVIDIA configuration filed under a name of its
// own, so that no other test's idle devices are in its free list.
func testChip(name string) *chips.Chip {
	c := chips.MiniNVIDIA()
	c.Name = name
	return c
}

func acquire(t testing.TB, chip *chips.Chip) gpu.Device {
	t.Helper()
	d, err := devices.Acquire(chip)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPoolKeepsAtMostGOMAXPROCSIdle: releasing more devices than
// GOMAXPROCS keeps GOMAXPROCS of them, and those are what the next
// acquisitions get, without a build.
func TestPoolKeepsAtMostGOMAXPROCSIdle(t *testing.T) {
	chip := testChip("pool test: idle cap")
	keep := runtime.GOMAXPROCS(0)
	var held []gpu.Device
	for range 2*keep + 1 {
		held = append(held, acquire(t, chip))
	}
	for i, d := range held {
		devices.Release(chip, d)
		if n := devices.Idle(chip); n != min(i+1, keep) {
			t.Fatalf("%d released: %d idle, want %d", i+1, n, min(i+1, keep))
		}
	}
	before := devices.Builds()
	for range keep {
		acquire(t, chip)
	}
	if n := devices.Builds() - before; n != 0 {
		t.Fatalf("%d idle devices, and %d acquisitions built %d", keep, keep, n)
	}
	if n := devices.Idle(chip); n != 0 {
		t.Fatalf("%d idle after taking them all", n)
	}
	acquire(t, chip)
	if n := devices.Builds() - before; n != 1 {
		t.Fatalf("an acquisition with none idle built %d devices", n)
	}
}

// TestPoolHandsEachDeviceToOneHolder: 8 goroutines cycle devices of one
// chip through the pool. No device is held twice at once, and each one
// comes out at power-on: its first allocation is at the allocator's base
// and reads zero. Under -race a shared device is also a reported race on
// its memory, which every holder writes.
func TestPoolHandsEachDeviceToOneHolder(t *testing.T) {
	chip := testChip("pool test: holders")
	var (
		mu   sync.Mutex
		held = map[gpu.Device]bool{}
		wg   sync.WaitGroup
	)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				d, err := devices.Acquire(chip)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				twice := held[d]
				held[d] = true
				mu.Unlock()
				if twice {
					t.Errorf("goroutine %d, cycle %d: a device is held by two holders", g, i)
					return
				}
				addr, err := d.Mem().Alloc(4)
				if err != nil {
					t.Error(err)
					return
				}
				if v, _ := d.Mem().Load32(addr); addr != 256 || v != 0 || d.Stats() != (gpu.RunStats{}) {
					t.Errorf("goroutine %d, cycle %d: acquired device not at power-on (first allocation %#x reads %#x, stats %+v)", g, i, addr, v, d.Stats())
					return
				}
				if err := d.Mem().Store32(addr, uint32(g<<16|i)); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				delete(held, d)
				mu.Unlock()
				devices.Release(chip, d)
			}
		}()
	}
	wg.Wait()
	if n := devices.Idle(chip); n > runtime.GOMAXPROCS(0) {
		t.Fatalf("%d idle devices, more than GOMAXPROCS", n)
	}
}

// TestPoolKeysTheWholeChip: a chip that shares the stock chip's name but
// differs in its scheduler or its unit count never receives the stock
// chip's device, and simulates as a device built for it does.
func TestPoolKeysTheWholeChip(t *testing.T) {
	stock := chips.MiniNVIDIA()
	gto := chips.MiniNVIDIA()
	gto.Scheduler = chips.SchedGTO
	units := chips.MiniNVIDIA()
	units.Units++
	bench, err := workloads.ByName("matrixMul")
	if err != nil {
		t.Fatal(err)
	}
	cycles := func(d gpu.Device) int64 {
		t.Helper()
		hp, err := bench.New(d.Vendor())
		if err != nil {
			t.Fatal(err)
		}
		if err := hp.Run(d); err != nil {
			t.Fatal(err)
		}
		return d.Stats().Cycles
	}
	d := acquire(t, stock)
	stockCycles := cycles(d)
	devices.Release(stock, d)
	for _, variant := range []*chips.Chip{gto, units} {
		v := acquire(t, variant)
		if v == d {
			t.Fatalf("a %+v campaign received the stock chip's device", *variant)
		}
		if v.Units() != variant.Units {
			t.Fatalf("acquired a device of %d units for a chip of %d", v.Units(), variant.Units)
		}
		fresh, err := devices.New(variant)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cycles(v), cycles(fresh); got != want {
			t.Fatalf("pooled device ran %d cycles, a device built for the chip %d", got, want)
		}
		devices.Release(variant, v)
	}
	if gtoCycles := cycles(acquire(t, gto)); gtoCycles == stockCycles {
		t.Fatalf("matrixMul runs %d cycles under both schedulers: the test cannot tell them apart", gtoCycles)
	}
	if got := acquire(t, stock); got != d {
		t.Fatal("the stock chip's idle device was not handed back to the stock chip")
	}
}

// TestFigurePassesBuildFromThePool regenerates the paper's three figures
// at 10 injections a cell, each pass from an empty store on a Runner and
// scheduler of its own, as a cold figure pass does. Without the pool
// every pass built 160 devices: 40 goldens, 40 ACE runs and 80 replicas.
// With one simulation per cell a pass holds at most GOMAXPROCS devices at
// once (GOMAXPROCS cells; then GOMAXPROCS ACE workers), so the first pass
// builds at most GOMAXPROCS per chip. (By default a cell that starts
// alone takes every core, and a chip can briefly need more devices than
// the pool keeps.) How many of one chip a pass holds at once depends on
// scheduling, so the pool is then topped up to GOMAXPROCS idle devices of
// every chip, the most it keeps, and the second pass builds none.
func TestFigurePassesBuildFromThePool(t *testing.T) {
	// Every idle device of the HD 7970 holds 18 MiB.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), 4)))
	keep := runtime.GOMAXPROCS(0)
	paper := chips.Evaluated()
	limit := int64(len(paper) * keep)

	pass := func() int64 {
		t.Helper()
		before := devices.Builds()
		runner := &experiment.Runner{Scheduler: campaign.New(campaign.Config{CampaignWorkers: 1})}
		for fig := 1; fig <= 3; fig++ {
			spec, err := experiment.Figure(fig)
			if err != nil {
				t.Fatal(err)
			}
			spec.Injections, spec.Seed = 10, 1
			if _, err := runner.Run(context.Background(), spec); err != nil {
				t.Fatal(err)
			}
		}
		return devices.Builds() - before
	}

	first := pass()
	if first > limit {
		t.Fatalf("the first pass built %d devices, more than %d chips × GOMAXPROCS %d", first, len(paper), keep)
	}
	before := devices.Builds()
	for _, chip := range paper {
		var held []gpu.Device
		for range keep {
			held = append(held, acquire(t, chip))
		}
		for _, d := range held {
			devices.Release(chip, d)
		}
	}
	if total := first + devices.Builds() - before; total > limit {
		t.Fatalf("%d devices built for %d chips at GOMAXPROCS %d", total, len(paper), keep)
	}
	if second := pass(); second != 0 {
		t.Fatalf("the second pass built %d devices from a warm pool (the first built %d)", second, first)
	}
	t.Logf("GOMAXPROCS %d: the first pass built %d devices, the second none", keep, first)
}
