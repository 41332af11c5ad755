package simt_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/chips"
	"repro/internal/gpu"
	"repro/internal/simt"
)

// probeRegs is the probe kernel's registers per thread.
const probeRegs = 4

// probe is an ISA with no instructions: the first wave it is asked to
// issue runs body while resident, then every wave retires. The lane
// accessors then work on a real wave of the chip under test — its block's
// register window, its unit, the device's tracer — with no operand
// decoding in between.
type probe struct {
	vendor gpu.Vendor
	body   func(d *simt.Device[struct{}], w *simt.Wave[struct{}])
}

func (*probe) Name() string         { return "probe" }
func (p *probe) Vendor() gpu.Vendor { return p.vendor }

func (*probe) Bind(gpu.Kernel) (int, error) { return 0, nil }

func (*probe) InitWave(*simt.Device[struct{}], *simt.Wave[struct{}], *simt.LaunchCtx) {}

func (p *probe) TryIssue(d *simt.Device[struct{}], w *simt.Wave[struct{}], _ *simt.LaunchCtx) (bool, int64, error) {
	if body := p.body; body != nil {
		p.body = nil
		body(d, w)
	}
	d.FinishWave(w)
	return true, 0, nil
}

func (*probe) CopyState(_, _ *struct{}) {}

// probeKernel asks for probeRegs registers a thread and no local memory.
type probeKernel struct{}

func (probeKernel) KernelName() string       { return "probe" }
func (probeKernel) VectorRegsPerThread() int { return probeRegs }
func (probeKernel) LocalBytesPerGroup() int  { return 0 }

// onResidentWave runs body on the first wave of one 64-thread group on
// chip: its block's register window holds 64*probeRegs entries, so an
// operand of up to 64 lanes at an offset below probeRegs stays inside
// it.
func onResidentWave(tb testing.TB, chip *chips.Chip, body func(d *simt.Device[struct{}], w *simt.Wave[struct{}])) {
	tb.Helper()
	p := &probe{vendor: chip.Vendor, body: body}
	d, err := simt.New[struct{}](chip, p)
	if err != nil {
		tb.Fatal(err)
	}
	if err := d.Launch(gpu.LaunchSpec{Kernel: probeKernel{}, Grid: gpu.D1(1), Group: gpu.D1(64)}); err != nil {
		tb.Fatal(err)
	}
	if p.body != nil {
		tb.Fatal("no wave issued")
	}
}

// regEvent is one RegAccess call.
type regEvent struct {
	unit, base int
	lanes      uint64
	cycle      int64
	write      bool
}

// regLog records the register events of the lane accessors.
type regLog struct{ events []regEvent }

func (r *regLog) RegAccess(unit, base int, lanes uint64, cycle int64, write bool) {
	r.events = append(r.events, regEvent{unit, base, lanes, cycle, write})
}
func (*regLog) LocalAccess(int, int, int, int64, bool) {}
func (*regLog) RegAlloc(int, int, int, int64)          {}
func (*regLog) RegFree(int, int, int, int64)           {}
func (*regLog) LocalAlloc(int, int, int, int64)        {}
func (*regLog) LocalFree(int, int, int, int64)         {}

// regCount counts register events and keeps none, so that a run through
// it allocates only what the accessors do.
type regCount struct {
	regLog
	n int
}

func (r *regCount) RegAccess(int, int, uint64, int64, bool) { r.n++ }

// entries lists the register entries an event reports, lane by lane.
func (e regEvent) entries(n int) []int {
	var out []int
	for l := range n {
		if e.lanes>>l&1 != 0 {
			out = append(out, e.base+l)
		}
	}
	return out
}

// TestLaneMovesMatchThePerLaneLoop: ReadRegs and WriteRegs move exactly
// the entries a masked per-lane loop moves — on every lane, on all but
// the top one, on one, on none; for 1 lane (a scalar read of a VGPR), 32
// (an NVIDIA warp register) and 64 (an AMD VGPR) — leave every other
// entry of the register file and every masked-off lane of the vector
// alone, report the same entries to the tracer in one event a call, and
// allocate nothing.
func TestLaneMovesMatchThePerLaneLoop(t *testing.T) {
	const off = probeRegs - 1
	forVendors(t, func(t *testing.T, v vendor) {
		onResidentWave(t, v.mini(), func(d *simt.Device[struct{}], w *simt.Wave[struct{}]) {
			regs := simt.RegFile(w)
			log := &regLog{}
			for _, n := range []int{1, 32, 64} {
				all := ^uint64(0) >> (64 - n)
				for _, lanes := range []uint64{all, ^uint64(0), all &^ (1 << (n - 1)), 1 << (n / 2), 0} {
					name := fmt.Sprintf("n=%d/lanes=%#x", n, lanes)
					for i := range regs {
						regs[i] = 0xa000_0000 + uint32(i)
					}
					ref := slices.Clone(regs)
					var touched []int
					got := make([]uint32, n)
					want := make([]uint32, n)
					src := make([]uint32, n)
					for l := range n {
						got[l], want[l], src[l] = 0xdead_0000+uint32(l), 0xdead_0000+uint32(l), 0xb000_0000+uint32(l)
					}
					for l := range n {
						if lanes>>l&1 != 0 {
							idx := w.RegBase + off + l
							want[l] = regs[idx]
							ref[idx] = src[l]
							touched = append(touched, idx)
						}
					}

					log.events = log.events[:0]
					d.SetTracer(log)
					d.ReadRegs(w, off, lanes, got)
					d.WriteRegs(w, off, lanes, src)
					d.SetTracer(nil)
					if !slices.Equal(got, want) {
						t.Errorf("%s: ReadRegs gave %#x, want %#x", name, got, want)
					}
					if !slices.Equal(regs, ref) {
						t.Errorf("%s: WriteRegs left a register file that differs from the per-lane loop's", name)
					}
					if len(log.events) != 2 {
						t.Fatalf("%s: %d register events, want one a call", name, len(log.events))
					}
					for i, e := range log.events {
						if e.unit != 0 || e.cycle != d.Cycle || e.write != (i == 1) || !slices.Equal(e.entries(n), touched) {
							t.Errorf("%s: event %+v reports entries %v, want unit 0, cycle %d, write %v, entries %v",
								name, e, e.entries(n), d.Cycle, i == 1, touched)
						}
					}

					count := &regCount{}
					d.SetTracer(count)
					if a := testing.AllocsPerRun(10, func() {
						d.ReadRegs(w, off, lanes, got)
						d.WriteRegs(w, off, lanes, src)
					}); a != 0 || count.n == 0 {
						t.Errorf("%s: %v allocations a run over %d traced calls, want 0", name, a, count.n)
					}
					d.SetTracer(nil)
				}
			}
		})
	})
}

// BenchmarkLaneMoves: one ReadRegs and one WriteRegs of an operand, the
// lane accessors' cost without an instruction around it, untraced — an
// AMD VGPR (64 lanes) and an NVIDIA warp register (32 lanes), with every
// lane active and with the top lane off.
func BenchmarkLaneMoves(b *testing.B) {
	onResidentWave(b, chips.MiniAMD(), func(d *simt.Device[struct{}], w *simt.Wave[struct{}]) {
		for _, layout := range []struct {
			name string
			n    int
		}{{"vgpr", 64}, {"warp", 32}} {
			v := make([]uint32, layout.n)
			all := ^uint64(0) >> (64 - layout.n)
			for _, mask := range []struct {
				name  string
				lanes uint64
			}{{"full", all}, {"partial", all >> 1}} {
				b.Run(layout.name+"/"+mask.name, func(b *testing.B) {
					for range b.N {
						d.ReadRegs(w, 1, mask.lanes, v)
						d.WriteRegs(w, 1, mask.lanes, v)
					}
				})
			}
		}
	})
}
