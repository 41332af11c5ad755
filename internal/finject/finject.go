// Package finject is the statistical fault-injection campaign engine —
// the core of what GUFI (NVIDIA/GPGPU-Sim) and SIFI (AMD/Multi2Sim) do in
// the paper. A campaign samples N single-bit faults uniformly over the
// (bit, cycle) population of one hardware structure of one chip running
// one benchmark, executes each fault in a fresh simulation — unless the
// golden run proves nothing reads the flipped entry before it is
// rewritten (see auditEvery) — classifies the outcome against the golden
// run (Masked / SDC / DUE / Timeout), and reports the AVF with its
// confidence interval.
//
// Campaigns are deterministic: fault #i is derived from (Seed, i) only,
// so results are independent of the worker count and the scheduling
// order.
package finject

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/ace"
	"repro/internal/chips"
	"repro/internal/devices"
	"repro/internal/flight"
	"repro/internal/gpu"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// DefaultInjections is the paper's per-structure sample size (2,000
// faults: 2.88% error margin at 99% confidence).
const DefaultInjections = 2000

// DefaultWatchdogFactor bounds a faulty run at this multiple of the
// golden cycle count before declaring a hang.
const DefaultWatchdogFactor = 20

// DefaultConfidence is the confidence level of the adaptive stopping
// rule when Config.Confidence is unset (the paper evaluates at 99%).
const DefaultConfidence = 0.99

// adaptiveFirstRound is the size of the first adaptive round. Later
// rounds double the completed count, so the interval is recomputed at
// 100, 200, 400, ... injections — a deterministic schedule that does not
// depend on the worker count.
const adaptiveFirstRound = 100

// Campaign describes one statistical fault-injection experiment.
type Campaign struct {
	Chip      *chips.Chip
	Benchmark *workloads.Benchmark
	Structure gpu.Structure
	// Injections is the number of faults (DefaultInjections when 0). An
	// adaptive policy treats it as the hard cap and may stop earlier.
	Injections int
	// Seed selects the fault sample; campaigns with equal seeds are
	// bit-for-bit reproducible.
	Seed uint64
	// Policy sets the execution policy: worker pool size, the checkpoint
	// knob and, when its Margin is set, adaptive early stopping. The zero
	// Config runs exactly Injections faults on GOMAXPROCS workers with an
	// auto-sized ladder. Its Seed is not read: the seed is the field above.
	Policy Config
	// WatchdogFactor overrides DefaultWatchdogFactor when > 0.
	WatchdogFactor int
	// Detail records every injection's fault site, outcome and SDC
	// severity in Result.Records (costs memory proportional to N).
	Detail bool
	// FaultWidth sets the burst width in adjacent bits (values < 2 give
	// the paper's single-bit model).
	FaultWidth uint
	// Golden supplies a precomputed fault-free reference run (see
	// NewGolden). It must come from the same chip configuration and
	// benchmark as the campaign; when nil the campaign executes its own
	// reference run. Sharing one Golden across the campaigns of all
	// structures of a (chip, benchmark) pair removes the redundant
	// reference simulations.
	Golden *Golden

	// unpruned simulates every sampled fault, also those the reference
	// run's liveness map proves Masked (see auditEvery) — the reference
	// side of PruneEquivalence, and what tests that meter the simulate
	// path run.
	unpruned bool
}

// Fault-site pruning: the reference run's ace.Recorder records, per
// touched entry, the flip cycles a read would be the first access to
// meet, and a sampled fault outside them is Masked without touching a
// device. This is exact: the device applies a fault at the top of the
// first launch-loop iteration whose cycle has reached Fault.Cycle, before
// any access of it, and every access of Unit.Regs / Unit.Local is traced
// stamped with its iteration's cycle (simt.TestStorageAccessIsTraced).
// Until the first access stamped >= the flip's cycle is a read the faulty
// run is the golden run — a write replaces the whole entry, an entry
// nobody touches again reaches no output — and allocation brackets prove
// nothing, since an uninitialised read consumes a flip too.
//
// auditEvery is the audit of fault-site pruning: of the sampled faults the
// liveness map proves dead, those whose injection index is a multiple of
// auditEvery are simulated all the same, and a campaign in which one of
// them does not come out Masked fails instead of reporting an AVF built on
// a broken map (an access path that reports nothing to the tracer, a stamp
// off by one). Selection is by injection index, never by worker or timing,
// so the simulated cycles of a campaign repeat exactly at a fixed seed.
//
// One in three is far more than the check needs and is sized by the
// repository's benchmark instead: its inject_deep gate compares the spread
// of cells_per_s between runs with a quarter of the parent commit's median
// as an absolute bound, which no campaign of a few milliseconds can meet
// (DESIGN.md "Fault-site pruning", the audit). Raise it when inject_deep
// has been resized.
const auditEvery = 3

// Record is one injection's detailed result (Campaign.Detail).
type Record struct {
	Fault   gpu.Fault
	Outcome gpu.Outcome
	// CorruptBytes counts output bytes differing from the golden run
	// (SDC severity; zero unless the outcome is SDC).
	CorruptBytes int
}

// Result aggregates a campaign.
type Result struct {
	// Outcomes counts per outcome class, indexed by gpu.Outcome.
	Outcomes [gpu.NumOutcomes]int
	// Injections is the realized sample size.
	Injections int
	// GoldenStats is the fault-free execution's statistics.
	GoldenStats gpu.RunStats
	// Occupancy is the time-weighted structure occupancy of the golden
	// run (the red line of Figs. 1 and 2).
	Occupancy float64
	// AVFACE is the structure's ACE AVF over the golden run, summed by
	// the recorder fault-site pruning reads (ace.Recorder.AVF). It is nil
	// where that run has no ACE (an access the recorder refuses) and in
	// results stored before the golden run carried it; the AVF-ACE then
	// takes a traced run of its own (ace.Measure).
	AVFACE *float64 `json:",omitempty"`
	// Records holds per-injection details when Campaign.Detail is set,
	// indexed by injection number (deterministic across worker counts).
	Records []Record
}

// AVF returns the fault-injection AVF: the fraction of injections that
// were not masked (SDC + DUE + Timeout).
func (r *Result) AVF() float64 {
	if r.Injections == 0 {
		return 0
	}
	fails := r.Injections - r.Outcomes[gpu.OutcomeMasked]
	return float64(fails) / float64(r.Injections)
}

// AVFInterval returns the Wilson confidence interval of the AVF.
func (r *Result) AVFInterval(confidence float64) (lo, hi float64, err error) {
	p := stats.Proportion{
		Successes: r.Injections - r.Outcomes[gpu.OutcomeMasked],
		Trials:    r.Injections,
	}
	return p.Interval(confidence)
}

// HalfWidth returns the half-width of the AVF's Wilson interval — the
// quantity the adaptive stopping rule drives below Policy.Margin.
func (r *Result) HalfWidth(confidence float64) (float64, error) {
	p := stats.Proportion{
		Successes: r.Injections - r.Outcomes[gpu.OutcomeMasked],
		Trials:    r.Injections,
	}
	return p.HalfWidth(confidence)
}

// Golden is the fault-free reference run of one (chip, benchmark) pair:
// the outputs and statistics outcomes are classified against, plus the
// checkpoint ladder and the liveness map captured during that run. Every
// campaign needs one; campaigns that target different structures of the
// same pair can share a single Golden through Campaign.Golden instead of
// each re-simulating the reference execution.
type Golden struct {
	chip    *chips.Chip
	bench   *workloads.Benchmark
	outputs []gpu.Region
	bytes   [][]byte
	cycles  int64
	stats   gpu.RunStats
	ladder  []gpu.Snapshot
	live    *ace.Liveness
	avfACE  [2]*float64 // per gpu.Structure; nil where the run has no ACE
	// staleRung limits the warning about a ladder that restores but does
	// not resume (see classify) to one per reference run.
	staleRung sync.Once

	// The default checkpoint ladder (ladder) is captured during the
	// reference run itself; ladders for explicit interval overrides are
	// built on first use (one extra fault-free run each) and kept. All
	// ladders are immutable once built and shared read-only by every
	// worker; the table is consulted once per campaign.
	ladders flight.Table[int64, []gpu.Snapshot]
}

// NewGolden executes the fault-free reference run once, for reuse across
// campaigns via Campaign.Golden. The run also captures the default
// checkpoint ladder (auto-sized snapshot spacing) that fast-forwarded
// injections restore from.
func NewGolden(chip *chips.Chip, bench *workloads.Benchmark) (*Golden, error) {
	if chip == nil || bench == nil {
		return nil, errors.New("finject: golden run needs a chip and a benchmark")
	}
	return runGolden(chip, bench, Checkpoint{}, true)
}

// CheckpointCycles returns the capture cycles of the default checkpoint
// ladder, in ascending order — introspection for tests and reports.
func (g *Golden) CheckpointCycles() []int64 {
	cycles := make([]int64, len(g.ladder))
	for i, s := range g.ladder {
		cycles[i] = s.Cycle()
	}
	return cycles
}

// ladderFor returns the checkpoint ladder for the configuration: the
// reference run's own for the default spacing, one built on first use
// and kept per explicit interval otherwise. A nil ladder (checkpointing
// off) makes every injection replay in full. Only the first requester of
// an interval simulates; concurrent ones wait for it, other intervals
// and the default ladder are never blocked; failed builds are not kept.
func (g *Golden) ladderFor(cfg Checkpoint) ([]gpu.Snapshot, error) {
	if cfg.Off {
		return nil, nil
	}
	if cfg.Interval <= 0 { // negative means auto too, not a new entry
		return g.ladder, nil
	}
	snaps, _, err := g.ladders.Do(context.Background(), cfg.Interval, func() ([]gpu.Snapshot, error) {
		run, err := runGolden(g.chip, g.bench, cfg, false)
		if err != nil {
			return nil, err
		}
		return run.ladder, nil
	})
	return snaps, err
}

// Chip returns the name of the chip the reference was run on.
func (g *Golden) Chip() string { return g.chip.Name }

// Benchmark returns the name of the benchmark the reference executed.
func (g *Golden) Benchmark() string { return g.bench.Name }

// Cycles returns the reference execution length in device cycles.
func (g *Golden) Cycles() int64 { return g.cycles }

// Stats returns the reference execution's statistics.
func (g *Golden) Stats() gpu.RunStats { return g.stats }

// runGolden executes the fault-free reference run, capturing the
// checkpoint ladder along the way unless ckpt.Off and, with live set,
// the liveness map and the AVF-ACE of both structures (a run made only
// for another ladder needs neither).
func runGolden(chip *chips.Chip, bench *workloads.Benchmark, ckpt Checkpoint, live bool) (*Golden, error) {
	defer telemetry.StartSpan(context.Background(), "golden_run")()
	d, err := devices.Acquire(chip)
	if err != nil {
		return nil, err
	}
	defer devices.Release(chip, d)
	hp, err := bench.New(chip.Vendor)
	if err != nil {
		return nil, err
	}
	var lb *ladderBuilder
	if !ckpt.Off {
		lb = newLadderBuilder(ckpt)
		lb.arm(d)
	}
	var rec *ace.Recorder
	if live {
		rec = ace.NewRecorder(d)
		d.SetTracer(rec)
	}
	if err := hp.Run(d); err != nil {
		return nil, fmt.Errorf("finject: golden run of %s on %s failed: %w", bench.Name, chip.Name, err)
	}
	d.SetCheckpointHook(0, nil)
	d.SetTracer(nil)
	g := &Golden{chip: chip, bench: bench, outputs: hp.Outputs(), stats: d.Stats(),
		ladders: flight.Table[int64, []gpu.Snapshot]{Keep: true}}
	if rec != nil {
		g.live = rec.Liveness()
		for s := range g.avfACE {
			if avf, err := rec.AVF(gpu.Structure(s), g.stats.Cycles); err == nil {
				g.avfACE[s] = &avf
			}
		}
	}
	if lb != nil {
		g.ladder = lb.snaps
		telemetry.LadderBuilds.Inc()
		telemetry.LadderSnapshots.Add(int64(len(lb.snaps)))
		var ladderBytes int64
		for _, s := range lb.snaps {
			ladderBytes += s.SizeBytes()
		}
		telemetry.LadderBytes.Add(ladderBytes)
	}
	g.cycles = g.stats.Cycles
	if g.cycles <= 0 {
		return nil, fmt.Errorf("finject: golden run of %s reported no cycles", bench.Name)
	}
	for _, r := range g.outputs {
		bs, err := d.Mem().ReadBytes(r.Addr, int(r.Size))
		if err != nil {
			return nil, err
		}
		g.bytes = append(g.bytes, bs)
	}
	return g, nil
}

// sampleFault draws fault #idx of the campaign.
func sampleFault(rng *stats.RNG, c Campaign, cycles int64, idx uint64) gpu.Fault {
	r := rng.Derive(idx)
	return gpu.Fault{
		Structure: c.Structure,
		Unit:      r.Intn(c.Chip.Units),
		Entry:     r.Intn(c.Chip.StructSize(c.Structure)),
		Bit:       uint(r.Intn(gpu.EntryBits(c.Structure))),
		Width:     c.FaultWidth,
		Cycle:     int64(r.Uint64n(uint64(cycles))),
	}
}

// classifyCost is one injection's execution-cost accounting, consumed by
// the telemetry counters: whether a checkpoint rung was restored, how
// many fault-free cycles the restore skipped, how many cycles the run
// actually simulated, and how many COW memory pages the restore copied
// versus skipped by identity. It never feeds back into outcomes.
type classifyCost struct {
	restored    bool
	ffCycles    int64
	simCycles   int64
	pagesCopied int64
	pagesShared int64
}

// classify runs one injection on a worker-owned device and host program,
// returning the outcome, (for SDCs) the number of corrupted output
// bytes, and the run's cost accounting. When the ladder holds a snapshot
// at or below the fault cycle, the run fast-forwards from it instead of
// replaying the fault-free prefix; the pre-fault execution is identical
// either way, so the outcome is too (proven by the differential
// equivalence suite).
func classify(d gpu.Device, hp *gpu.HostProgram, g *Golden, ladder []gpu.Snapshot, f gpu.Fault, watchdog int64) (gpu.Outcome, int, classifyCost) {
	var cost classifyCost
	if snap := latestBelow(ladder, f.Cycle); snap != nil {
		rc, _ := d.(gpu.RestoreCoster)
		var c0, s0 int64
		if rc != nil {
			c0, s0 = rc.RestorePageStats()
		}
		if d.Restore(snap) == nil {
			cost.restored = true
			cost.ffCycles = snap.Cycle()
			if rc != nil {
				c1, s1 := rc.RestorePageStats()
				cost.pagesCopied = c1 - c0
				cost.pagesShared = s1 - s0
			}
		}
	}
	if !cost.restored {
		d.Reset()
	}
	run := func() error {
		d.SetWatchdog(watchdog)
		d.InjectFault(&f)
		return hp.Run(d)
	}
	err := run()
	if cost.restored && errors.Is(err, wire.ErrCorrupt) {
		// The rung restored but does not fit the launch that resumed from
		// it — a ladder captured from another program on this chip. Only
		// decode, restore and resume paths produce ErrCorrupt, never an
		// injected fault, and an accelerator must never change an
		// outcome: redo the injection as the full replay it would have
		// been without the ladder.
		g.staleRung.Do(func() {
			slog.Warn("finject: checkpoint rung does not fit the resumed launch, replaying in full", "cycle", cost.ffCycles, "err", err)
		})
		cost.restored, cost.ffCycles = false, 0
		d.Reset()
		err = run()
	}
	if sim := d.Stats().Cycles - cost.ffCycles; sim > 0 {
		cost.simCycles = sim
	}
	switch {
	case errors.Is(err, gpu.ErrWatchdog):
		return gpu.OutcomeTimeout, 0, cost
	case err != nil:
		return gpu.OutcomeDUE, 0, cost
	}
	outs := hp.Outputs()
	if len(outs) != len(g.outputs) {
		return gpu.OutcomeDUE, 0, cost
	}
	corrupt := 0
	for i, r := range outs {
		bs, err := d.Mem().ReadBytes(r.Addr, int(r.Size))
		if err != nil {
			return gpu.OutcomeDUE, 0, cost
		}
		if !bytes.Equal(bs, g.bytes[i]) {
			corrupt += diffBytes(bs, g.bytes[i])
		}
	}
	if corrupt > 0 {
		return gpu.OutcomeSDC, corrupt, cost
	}
	return gpu.OutcomeMasked, 0, cost
}

// diffBytes counts positions where the two equal-length slices differ.
func diffBytes(a, b []byte) int {
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// Run executes the campaign to completion.
func Run(c Campaign) (*Result, error) {
	return RunContext(context.Background(), c)
}

// injector is one worker's private device replica: a full simulator
// instance plus host program, reused across every injection (and every
// adaptive round) the worker executes. Workers never share a device —
// the only shared state during a round is the immutable golden/ladder.
type injector struct {
	d  gpu.Device
	hp *gpu.HostProgram
}

// acquireReplica builds the benchmark's host program and takes a device
// for the campaign's chip from the device pool.
func acquireReplica(c Campaign) (*injector, error) {
	hp, err := c.Benchmark.New(c.Chip.Vendor)
	if err != nil {
		return nil, err
	}
	d, err := devices.Acquire(c.Chip)
	if err != nil {
		return nil, err
	}
	return &injector{d: d, hp: hp}, nil
}

// releaseReplicas hands a campaign's worker devices back to the pool.
func releaseReplicas(c Campaign, pool []*injector) {
	for _, in := range pool {
		if in != nil {
			devices.Release(c.Chip, in.d)
		}
	}
}

// RunContext executes the campaign, stopping promptly when ctx is
// canceled: no further injections are scheduled once cancellation is
// observed. On cancellation it returns the partial result accumulated so
// far (nil when canceled before the reference run) together with an error
// wrapping ctx.Err(); Result.Injections then reflects the number of
// injections actually performed, and with Campaign.Detail set Records is
// truncated to the injections that ran.
//
// With an adaptive policy (Policy.Margin > 0) injections run in
// deterministic rounds; after each round the AVF's Wilson interval is
// recomputed and the campaign stops once its half-width reaches the
// margin, or at the cap. The round schedule depends only on completed
// injection counts, never on the worker count, so a fixed seed yields
// bit-identical results for any Policy.Workers.
func RunContext(ctx context.Context, c Campaign) (*Result, error) {
	if c.Chip == nil || c.Benchmark == nil {
		return nil, errors.New("finject: campaign needs a chip and a benchmark")
	}
	limit := c.Policy.Cap(c.Injections)
	workers := c.Policy.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > limit {
		workers = limit
	}
	wdFactor := c.WatchdogFactor
	if wdFactor <= 0 {
		wdFactor = DefaultWatchdogFactor
	}
	var (
		g      = c.Golden
		ladder []gpu.Snapshot
	)
	if g != nil {
		// By configuration: a GTO variant's golden is no stock reference.
		if *g.chip != *c.Chip || g.bench.Name != c.Benchmark.Name {
			return nil, fmt.Errorf("finject: golden run is for %s/%s, campaign targets %s/%s",
				g.chip.Name, g.bench.Name, c.Chip.Name, c.Benchmark.Name)
		}
		var err error
		if ladder, err = g.ladderFor(c.Policy.Knob()); err != nil {
			return nil, err
		}
	} else {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("finject: campaign canceled before the reference run: %w", err)
		}
		var err error
		g, err = runGolden(c.Chip, c.Benchmark, c.Policy.Knob(), true)
		if err != nil {
			return nil, err
		}
		ladder = g.ladder
	}
	watchdog := g.cycles*int64(wdFactor) + 10_000

	res := &Result{
		GoldenStats: g.stats,
		Occupancy:   g.stats.Occupancy(c.Structure, int64(c.Chip.Units)*int64(c.Chip.StructSize(c.Structure))),
	}
	if uint(c.Structure) < uint(len(g.avfACE)) {
		res.AVFACE = g.avfACE[c.Structure]
	}
	if c.Detail {
		res.Records = make([]Record, limit)
	}
	baseRNG := stats.NewRNG(c.Seed)

	// A worker takes its device replica from the pool on its first fault
	// that is simulated (see runRound).
	pool := make([]*injector, workers)
	defer releaseReplicas(c, pool)

	done := 0
	for done < limit {
		end := limit
		if c.Policy.Adaptive() {
			end = done * 2
			if end < adaptiveFirstRound {
				end = adaptiveFirstRound
			}
			if end > limit {
				end = limit
			}
		}
		endSpan := telemetry.StartSpan(ctx, "injection_round")
		ran, err := runRound(ctx, c, pool, g, ladder, watchdog, baseRNG, done, end, res)
		endSpan()
		if err != nil {
			return nil, err
		}
		telemetry.InjectRounds.Inc()
		done += ran
		if done < end {
			res.Injections = done
			if res.Records != nil {
				res.Records = res.Records[:done]
			}
			return res, fmt.Errorf("finject: campaign canceled after %d/%d injections: %w", done, limit, ctx.Err())
		}
		if c.Policy.Adaptive() {
			res.Injections = done
			hw, err := res.HalfWidth(c.Policy.confidence())
			if err != nil {
				return nil, err
			}
			if hw <= c.Policy.Margin {
				if done < limit {
					telemetry.InjectEarlyStops.Inc()
				}
				break
			}
		}
	}
	res.Injections = done
	if res.Records != nil {
		res.Records = res.Records[:done]
	}
	return res, nil
}

// runRound executes injections [start, end) across the worker pool and
// reports how many completed. Indices are handed out through an atomic
// counter and every handed-out index is classified, so on cancellation
// the completed injections are exactly the contiguous prefix
// [start, start+ran). A sampled fault the liveness map proves dead is
// Masked on the spot, unless the audit picks it (auditEvery); live and
// audited faults reach classify, on a replica the worker acquires with
// its first one. The first acquisition error or audit failure ends the
// round and is returned.
func runRound(ctx context.Context, c Campaign, pool []*injector, g *Golden, ladder []gpu.Snapshot, watchdog int64, rng *stats.RNG, start, end int, res *Result) (int, error) {
	ctx, stop := context.WithCancel(ctx)
	defer stop()
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
		ran  int
		fail error
	)
	next.Store(int64(start))
	for w := range pool {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Telemetry accumulates in worker-locals and flushes once per
			// round, so the per-injection hot loop costs no atomics.
			var (
				local    [gpu.NumOutcomes]int
				count    int
				pruned   int64
				restores int64
				replays  int64
				ffCyc    int64
				simCyc   int64
				pgCopied int64
				pgShared int64
				err      error
			)
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= end {
					break
				}
				f := sampleFault(rng, c, g.cycles, uint64(i))
				o, corrupt := gpu.OutcomeMasked, 0
				dead := !c.unpruned && g.live.Dead(f)
				if dead && i%auditEvery != 0 {
					pruned++
				} else {
					if pool[w] == nil {
						if pool[w], err = acquireReplica(c); err != nil {
							stop()
							break
						}
					}
					var cost classifyCost
					o, corrupt, cost = classify(pool[w].d, pool[w].hp, g, ladder, f, watchdog)
					if dead && o != gpu.OutcomeMasked {
						err = fmt.Errorf("finject: audit: injection #%d %v is dead by the liveness map and %v when simulated", i, f, o)
						stop()
						break
					}
					if cost.restored {
						restores++
					} else {
						replays++
					}
					ffCyc += cost.ffCycles
					simCyc += cost.simCycles
					pgCopied += cost.pagesCopied
					pgShared += cost.pagesShared
				}
				local[o]++
				count++
				if res.Records != nil {
					res.Records[i] = Record{Fault: f, Outcome: o, CorruptBytes: corrupt}
				}
			}
			telemetry.Injections.Add(int64(count))
			telemetry.InjectPruned.Add(pruned)
			telemetry.CkptRestores.Add(restores)
			telemetry.FullReplays.Add(replays)
			telemetry.FastForwardCycles.Add(ffCyc)
			telemetry.SimulatedCycles.Add(simCyc)
			telemetry.RestorePagesCopied.Add(pgCopied)
			telemetry.RestorePagesShared.Add(pgShared)
			mu.Lock()
			for o, cnt := range local {
				res.Outcomes[o] += cnt
			}
			ran += count
			if fail == nil {
				fail = err
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return ran, fail
}
