// Package repro's root benchmark harness measures the injection hot
// paths and the design-choice ablations called out in DESIGN.md:
//
//	go test -bench=. -benchmem
//
// runs them at a reduced (CI-friendly) injection count; raise it with
// -repro.n to approach the paper's 2,000. The paper's three figures are
// regenerated by cmd/figures and measured end to end by go run ./bench
// (figures_cold, figures_warm).
package repro

import (
	"flag"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/ace"
	"repro/internal/chips"
	"repro/internal/devices"
	"repro/internal/finject"
	"repro/internal/gpu"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

var benchInjections = flag.Int("repro.n", 60, "fault injections per campaign in the ablation benchmarks")

// BenchmarkStatisticalSampling regenerates the paper's Section III
// footnote: the error margin of 2,000 injections at 99% confidence.
func BenchmarkStatisticalSampling(b *testing.B) {
	var margin float64
	for i := 0; i < b.N; i++ {
		var err error
		margin, err = stats.MarginOfError(2000, 0, 0.99)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*margin, "%margin@2000")
}

// BenchmarkAblationScheduler compares the two issue-arbitration policies
// (round-robin vs greedy-then-oldest) across all four chips for one
// benchmark — the DESIGN.md scheduler ablation. Both policies must
// produce identical architectural results; only cycle counts may move.
func BenchmarkAblationScheduler(b *testing.B) {
	bench, err := workloads.ByName("matrixMul")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, chip := range chips.Evaluated() {
			gto := *chip
			gto.Scheduler = chips.SchedGTO
			rrCycles, rrAVF := runCyclesAndAVF(b, chip, bench)
			gtoCycles, gtoAVF := runCyclesAndAVF(b, &gto, bench)
			chip := chip
			schedulerOnce.Do2(chip.Name, func() {
				fmt.Printf("scheduler ablation %-16s rr=%d cyc (AVF-ACE %.2f%%), gto=%d cyc (AVF-ACE %.2f%%), gto/rr=%.3f\n",
					chip.Name, rrCycles, 100*rrAVF, gtoCycles, 100*gtoAVF,
					float64(gtoCycles)/float64(rrCycles))
			})
		}
	}
}

// onceBy prints each keyed line once per process, so ablation rows do not
// repeat when the benchmark harness re-runs with growing b.N.
type onceBy struct {
	mu   sync.Mutex
	seen map[string]bool
}

func (o *onceBy) Do2(key string, f func()) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.seen == nil {
		o.seen = make(map[string]bool)
	}
	if o.seen[key] {
		return
	}
	o.seen[key] = true
	f()
}

var (
	schedulerOnce onceBy
	sampleOnce    onceBy
	normOnce      onceBy
	resourceOnce  onceBy
	widthOnce     onceBy
	tradeoffOnce  onceBy
)

// runCyclesAndAVF measures one benchmark's cycle count and register-file
// ACE AVF on a chip (the scheduling policy affects both: residency time
// stretches with the schedule).
func runCyclesAndAVF(b *testing.B, chip *chips.Chip, bench *workloads.Benchmark) (int64, float64) {
	b.Helper()
	d, err := devices.New(chip)
	if err != nil {
		b.Fatal(err)
	}
	hp, err := bench.New(chip.Vendor)
	if err != nil {
		b.Fatal(err)
	}
	regAVF, _, st, err := ace.Measure(d, hp)
	if err != nil {
		b.Fatal(err)
	}
	return st.Cycles, regAVF
}

// BenchmarkAblationSampleSize sweeps the FI sample size and reports the
// measured AVF with its shrinking confidence interval (DESIGN.md sample
// size ablation; the paper fixes n=2000).
func BenchmarkAblationSampleSize(b *testing.B) {
	bench, err := workloads.ByName("reduction")
	if err != nil {
		b.Fatal(err)
	}
	chip := chips.QuadroFX5600()
	for i := 0; i < b.N; i++ {
		for _, n := range []int{100, 250, 500, 1000} {
			res, err := finject.Run(finject.Campaign{
				Chip: chip, Benchmark: bench, Structure: gpu.RegisterFile,
				Injections: n, Seed: 5,
			})
			if err != nil {
				b.Fatal(err)
			}
			lo, hi, err := res.AVFInterval(0.99)
			if err != nil {
				b.Fatal(err)
			}
			n := n
			sampleOnce.Do2(fmt.Sprint(n), func() {
				fmt.Printf("sample-size ablation n=%-5d AVF=%6.2f%%  99%% CI [%5.2f%%, %5.2f%%] width=%.2f%%\n",
					n, 100*res.AVF(), 100*lo, 100*hi, 100*(hi-lo))
			})
		}
	}
}

// BenchmarkAblationOccupancyNormalization contrasts chip-wide AVF (the
// paper's definition) with allocation-normalized AVF, quantifying how
// much of the cross-chip AVF difference is occupancy (DESIGN.md
// normalization ablation).
func BenchmarkAblationOccupancyNormalization(b *testing.B) {
	bench, err := workloads.ByName("transpose")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, chip := range chips.Evaluated() {
			d, err := devices.New(chip)
			if err != nil {
				b.Fatal(err)
			}
			hp, err := bench.New(chip.Vendor)
			if err != nil {
				b.Fatal(err)
			}
			regAVF, _, st, err := ace.Measure(d, hp)
			if err != nil {
				b.Fatal(err)
			}
			occ := st.Occupancy(gpu.RegisterFile, int64(chip.Units)*int64(chip.RegsPerUnit))
			norm := 0.0
			if occ > 0 {
				norm = regAVF / occ
			}
			chip := chip
			normOnce.Do2(chip.Name, func() {
				fmt.Printf("normalization ablation %-16s chip-wide AVF=%6.2f%% occ=%6.2f%% allocated-only AVF=%6.2f%%\n",
					chip.Name, 100*regAVF, 100*occ, 100*norm)
			})
		}
	}
}

// BenchmarkAblationResourceSize sweeps the register-file capacity of a
// Fermi-like chip and reports the ACE AVF — the paper's "resource sizes"
// factor: a larger file dilutes the same live state into more bits, so
// chip-wide AVF falls as capacity grows.
func BenchmarkAblationResourceSize(b *testing.B) {
	bench, err := workloads.ByName("reduction")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, regs := range []int{8192, 16384, 32768, 65536} {
			chip := chips.GeForceGTX480()
			chip.RegsPerUnit = regs
			chip.Name = fmt.Sprintf("GTX480-%dk-regs", regs/1024)
			d, err := devices.New(chip)
			if err != nil {
				b.Fatal(err)
			}
			hp, err := bench.New(chip.Vendor)
			if err != nil {
				b.Fatal(err)
			}
			regAVF, _, st, err := ace.Measure(d, hp)
			if err != nil {
				b.Fatal(err)
			}
			occ := st.Occupancy(gpu.RegisterFile, int64(chip.Units)*int64(regs))
			regs := regs
			resourceOnce.Do2(fmt.Sprint(regs), func() {
				fmt.Printf("resource-size ablation regs/SM=%-6d AVF-ACE=%6.3f%% occupancy=%6.2f%%\n",
					regs, 100*regAVF, 100*occ)
			})
		}
	}
}

// BenchmarkMethodologyTradeoff times a full FI campaign against a single
// ACE pass for the same cell and reports both AVFs — the paper's central
// analysis-time vs accuracy trade-off.
func BenchmarkMethodologyTradeoff(b *testing.B) {
	bench, err := workloads.ByName("histogram")
	if err != nil {
		b.Fatal(err)
	}
	chip := chips.QuadroFX5800()
	for i := 0; i < b.N; i++ {
		fiStart := nowSeconds()
		res, err := finject.Run(finject.Campaign{
			Chip: chip, Benchmark: bench, Structure: gpu.LocalMemory,
			Injections: *benchInjections, Seed: 13,
		})
		if err != nil {
			b.Fatal(err)
		}
		fiTime := nowSeconds() - fiStart

		aceStart := nowSeconds()
		d, err := devices.New(chip)
		if err != nil {
			b.Fatal(err)
		}
		hp, err := bench.New(chip.Vendor)
		if err != nil {
			b.Fatal(err)
		}
		_, localACE, _, err := ace.Measure(d, hp)
		if err != nil {
			b.Fatal(err)
		}
		aceTime := nowSeconds() - aceStart
		tradeoffOnce.Do2("tradeoff", func() {
			speedup := fiTime / aceTime
			fmt.Printf("methodology tradeoff (histogram local memory): FI(n=%d) AVF=%.2f%% in %.3fs; ACE AVF=%.2f%% in %.4fs (%.0fx faster)\n",
				*benchInjections, 100*res.AVF(), fiTime, 100*localACE, aceTime, speedup)
		})
	}
}

func nowSeconds() float64 { return float64(time.Now().UnixNano()) / 1e9 }

// BenchmarkAblationFaultWidth sweeps the burst width of the injected
// fault (1/2/4 adjacent bits) — an extension beyond the paper's
// single-bit model. Wider bursts can only raise the AVF: every bit of
// the burst is an independent chance to land in a live interval.
func BenchmarkAblationFaultWidth(b *testing.B) {
	bench, err := workloads.ByName("transpose")
	if err != nil {
		b.Fatal(err)
	}
	chip := chips.QuadroFX5600()
	for i := 0; i < b.N; i++ {
		prev := -1.0
		for _, width := range []uint{1, 2, 4} {
			res, err := finject.Run(finject.Campaign{
				Chip: chip, Benchmark: bench, Structure: gpu.RegisterFile,
				Injections: *benchInjections * 2, Seed: 19, FaultWidth: width,
			})
			if err != nil {
				b.Fatal(err)
			}
			width := width
			widthOnce.Do2(fmt.Sprint(width), func() {
				fmt.Printf("fault-width ablation width=%d AVF=%6.2f%% (sdc=%d due=%d timeout=%d)\n",
					width, 100*res.AVF(), res.Outcomes[gpu.OutcomeSDC],
					res.Outcomes[gpu.OutcomeDUE], res.Outcomes[gpu.OutcomeTimeout])
			})
			_ = prev
			prev = res.AVF()
		}
	}
}

// BenchmarkInjectionLoop measures the parallel injection hot path at a
// fixed sample size across worker counts; the shared golden keeps the
// reference run out of the loop, so the metric is pure injection
// throughput. Multi-worker runs must beat serial wall-clock while
// producing bit-identical results (enforced by finject's determinism
// tests).
func BenchmarkInjectionLoop(b *testing.B) {
	bench, err := workloads.ByName("matrixMul")
	if err != nil {
		b.Fatal(err)
	}
	chip := chips.MiniNVIDIA()
	golden, err := finject.NewGolden(chip, bench)
	if err != nil {
		b.Fatal(err)
	}
	const n = 400
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := finject.Run(finject.Campaign{
					Chip: chip, Benchmark: bench, Structure: gpu.RegisterFile,
					Injections: n, Seed: 11, Golden: golden,
					Policy: finject.Policy{Workers: workers},
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Injections != n {
					b.Fatalf("ran %d injections, want %d", res.Injections, n)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "inj/s")
		})
	}
}

// BenchmarkTelemetryOverhead runs the same injection loop with no
// observers and with every observer running — tracer installed and a
// goroutine scraping the metrics registry's Prometheus exposition in a
// tight loop — so the committed baseline pins the cost of observation
// itself. The always-on counters ride in both variants (they are part
// of the engine); the delta is the price of actually looking, and the
// CI bench gate fails if either variant regresses past tolerance.
func BenchmarkTelemetryOverhead(b *testing.B) {
	bench, err := workloads.ByName("matrixMul")
	if err != nil {
		b.Fatal(err)
	}
	chip := chips.MiniNVIDIA()
	golden, err := finject.NewGolden(chip, bench)
	if err != nil {
		b.Fatal(err)
	}
	const n = 400
	loop := func(b *testing.B) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			res, err := finject.Run(finject.Campaign{
				Chip: chip, Benchmark: bench, Structure: gpu.RegisterFile,
				Injections: n, Seed: 11, Golden: golden,
				Policy: finject.Policy{Workers: 4},
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Injections != n {
				b.Fatalf("ran %d injections, want %d", res.Injections, n)
			}
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "inj/s")
	}
	b.Run("observed=off", loop)
	b.Run("observed=on", func(b *testing.B) {
		prev := telemetry.SetTracer(telemetry.NewTracer())
		defer telemetry.SetTracer(prev)
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
					telemetry.Default.WritePrometheus(io.Discard)
				}
			}
		}()
		defer func() {
			close(stop)
			<-done
		}()
		loop(b)
	})
}

// BenchmarkCheckpointVsFull contrasts checkpointed fast-forward against
// full per-injection replay on the same cell with one shared golden:
// restoring the nearest snapshot below each fault cycle skips the
// fault-free prefix, which at uniform (bit, cycle) sampling halves the
// simulated cycles — the differential suite in internal/finject proves
// the results byte-identical, so the entire delta is pure speed. The
// committed BENCH_baseline.json carries both variants and
// cmd/benchgate fails CI if the win regresses.
func BenchmarkCheckpointVsFull(b *testing.B) {
	bench, err := workloads.ByName("matrixMul")
	if err != nil {
		b.Fatal(err)
	}
	chip := chips.MiniNVIDIA()
	golden, err := finject.NewGolden(chip, bench)
	if err != nil {
		b.Fatal(err)
	}
	const n = 400
	campaign := func(ckpt finject.Checkpoint) finject.Campaign {
		return finject.Campaign{
			Chip: chip, Benchmark: bench, Structure: gpu.RegisterFile,
			Injections: n, Seed: 11, Golden: golden,
			Policy: finject.Policy{Workers: 4, Checkpoint: ckpt},
		}
	}
	run := func(b *testing.B, ckpt finject.Checkpoint) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			res, err := finject.Run(campaign(ckpt))
			if err != nil {
				b.Fatal(err)
			}
			if res.Injections != n {
				b.Fatalf("ran %d injections, want %d", res.Injections, n)
			}
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "inj/s")
	}
	b.Run("full-replay", func(b *testing.B) { run(b, finject.Checkpoint{Off: true}) })
	b.Run("checkpointed", func(b *testing.B) { run(b, finject.Checkpoint{}) })
}

// BenchmarkAdaptiveVsFixed contrasts the adaptive stopping rule against
// the fixed sample size on the same cell: the adaptive run must reach
// the requested margin with a fraction of the injections (reported as
// the realized-n metric).
func BenchmarkAdaptiveVsFixed(b *testing.B) {
	bench, err := workloads.ByName("matrixMul")
	if err != nil {
		b.Fatal(err)
	}
	chip := chips.MiniNVIDIA()
	golden, err := finject.NewGolden(chip, bench)
	if err != nil {
		b.Fatal(err)
	}
	const cap = 2000
	campaign := func(pol finject.Policy) finject.Campaign {
		return finject.Campaign{
			Chip: chip, Benchmark: bench, Structure: gpu.RegisterFile,
			Injections: cap, Seed: 17, Golden: golden, Policy: pol,
		}
	}
	b.Run("fixed-n", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := finject.Run(campaign(finject.Policy{})); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(cap, "realized-n")
	})
	b.Run("adaptive-margin=5%", func(b *testing.B) {
		realized := 0
		for i := 0; i < b.N; i++ {
			res, err := finject.Run(campaign(finject.Policy{Margin: 0.05}))
			if err != nil {
				b.Fatal(err)
			}
			realized = res.Injections
		}
		b.ReportMetric(float64(realized), "realized-n")
	})
}

// BenchmarkSimulatorThroughput measures raw simulation speed (lane
// instructions per second) for both vendors' simulators — the analysis
// time side of the paper's accuracy/time trade-off discussion.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for _, chip := range []*chips.Chip{chips.GeForceGTX480(), chips.HDRadeon7970()} {
		b.Run(chip.Arch, func(b *testing.B) {
			bench, err := workloads.ByName("matrixMul")
			if err != nil {
				b.Fatal(err)
			}
			hp, err := bench.New(chip.Vendor)
			if err != nil {
				b.Fatal(err)
			}
			d, err := devices.New(chip)
			if err != nil {
				b.Fatal(err)
			}
			var lanes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Reset()
				if err := hp.Run(d); err != nil {
					b.Fatal(err)
				}
				lanes += d.Stats().LaneInstructions
			}
			b.ReportMetric(float64(lanes)/b.Elapsed().Seconds(), "lane-instrs/s")
		})
	}
}

func runCycles(b *testing.B, chip *chips.Chip, bench *workloads.Benchmark) int64 {
	b.Helper()
	d, err := devices.New(chip)
	if err != nil {
		b.Fatal(err)
	}
	hp, err := bench.New(chip.Vendor)
	if err != nil {
		b.Fatal(err)
	}
	if err := hp.Run(d); err != nil {
		b.Fatal(err)
	}
	return d.Stats().Cycles
}
