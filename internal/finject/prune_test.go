package finject

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/ace"
	"repro/internal/chips"
	"repro/internal/devices"
	"repro/internal/gpu"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

var bothStructures = []gpu.Structure{gpu.RegisterFile, gpu.LocalMemory}

// TestPruneEquivalenceMatrix is the differential proof that fault-site
// pruning is invisible in results: on both vendors' simulators, for every
// benchmark of the suite and both structures (local memory also where the
// benchmark never touches it — every sample is then dead), single-bit and
// burst faults, fixed-n and adaptive sampling, one worker and four, a
// campaign whose dead samples are answered from the liveness map must be
// byte-identical to the same campaign with every sample simulated. The
// comparison lives in PruneEquivalence, run with four workers — under
// -race (CI's race job runs this) also the proof that the shared map is
// only read; the one-worker run is held against the pruned run just
// proven, which spares a second simulation of every sample.
func TestPruneEquivalenceMatrix(t *testing.T) {
	benches := workloads.All()
	if testing.Short() || raceEnabled {
		benches = benches[:3]
	}
	prunedBefore, injBefore := telemetry.InjectPruned.Value(), telemetry.Injections.Value()
	for _, chip := range []*chips.Chip{chips.MiniNVIDIA(), chips.MiniAMD()} {
		for _, bench := range benches {
			golden, err := NewGolden(chip, bench)
			if err != nil {
				t.Fatalf("%s/%s: golden: %v", chip.Name, bench.Name, err)
			}
			for _, st := range bothStructures {
				t.Run(fmt.Sprintf("%s/%s/%s", chip.Vendor, bench.Name, st), func(t *testing.T) {
					for _, width := range []uint{1, 3} {
						for _, margin := range []float64{0, 0.05} {
							c := Campaign{
								Chip: chip, Benchmark: bench, Structure: st, FaultWidth: width,
								Seed:   CellSeed(chip.Name, bench.Name, st) + uint64(width),
								Golden: golden, Detail: true,
								// Fixed n, or an adaptive campaign that runs
								// its first round of 100 and decides there
								// or at the cap.
								Injections: 25, Policy: Config{Workers: 4},
							}
							if margin > 0 {
								c.Injections, c.Policy.Margin = 125, margin
							}
							four, err := PruneEquivalence(c)
							if err != nil {
								t.Fatalf("width=%d margin=%v: %v", width, margin, err)
							}
							c.Policy.Workers = 1
							one, err := Run(c)
							if err != nil {
								t.Fatal(err)
							}
							if err := equalResults(four, one); err != nil {
								t.Fatalf("width=%d margin=%v: one worker diverges from four: %v", width, margin, err)
							}
						}
					}
				})
			}
		}
	}
	// Every campaign ran three times, twice pruned.
	pruned, samples := (telemetry.InjectPruned.Value()-prunedBefore)/2, (telemetry.Injections.Value()-injBefore)/3
	t.Logf("pruned %d of %d samples", pruned, samples)
	if pruned == 0 {
		t.Fatal("no sample was pruned: the matrix proved nothing")
	}
}

// TestPruneEquivalenceFullSize runs the proof on the benchmark's two
// inject_deep cells at their size. (What the liveness tables of the
// paper's 40 pairs retain is bounded by ace.TestLivenessTablesStaySmall.)
func TestPruneEquivalenceFullSize(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full-size chips")
	}
	mm, err := workloads.ByName("matrixMul")
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range []struct {
		chip *chips.Chip
		st   gpu.Structure
	}{
		{chips.GeForceGTX480(), gpu.RegisterFile},
		{chips.HDRadeon7970(), gpu.LocalMemory},
	} {
		res, err := PruneEquivalence(Campaign{Chip: cell.chip, Benchmark: mm, Structure: cell.st, Injections: 250, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s/%s: outcomes %v", cell.chip.Name, cell.st, res.Outcomes)
	}
}

// rawAccess is one traced access of one entry.
type rawAccess struct {
	cycle int64
	write bool
}

// rawTrace is a gpu.Tracer that feeds an ace.Recorder and keeps every
// access per entry as it came, for tests to hold the recorder's answers
// against the definition.
type rawTrace struct {
	*ace.Recorder
	perUnit [2]int
	acc     [2]map[int][]rawAccess // by structure, keyed unit*perUnit+entry
}

func (r *rawTrace) RegAccess(unit, entry int, cycle int64, write bool) {
	r.Recorder.RegAccess(unit, entry, cycle, write)
	k := unit*r.perUnit[gpu.RegisterFile] + entry
	r.acc[gpu.RegisterFile][k] = append(r.acc[gpu.RegisterFile][k], rawAccess{cycle, write})
}

func (r *rawTrace) LocalAccess(unit, offset, size int, cycle int64, write bool) {
	r.Recorder.LocalAccess(unit, offset, size, cycle, write)
	for b := 0; b < size; b++ {
		k := unit*r.perUnit[gpu.LocalMemory] + offset + b
		r.acc[gpu.LocalMemory][k] = append(r.acc[gpu.LocalMemory][k], rawAccess{cycle, write})
	}
}

// liveByDefinition: a flip at cycle t is live iff the first access
// stamped >= t is a read.
func liveByDefinition(acc []rawAccess, t int64) bool {
	i := sort.Search(len(acc), func(i int) bool { return acc[i].cycle >= t })
	return i < len(acc) && !acc[i].write
}

// traceRun executes the benchmark once, fault-free, under a rawTrace.
func traceRun(t *testing.T, chip *chips.Chip, bench *workloads.Benchmark) (*rawTrace, *ace.Liveness, gpu.RunStats) {
	t.Helper()
	d, err := devices.New(chip)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := bench.New(chip.Vendor)
	if err != nil {
		t.Fatal(err)
	}
	rt := &rawTrace{Recorder: ace.NewRecorder(d)}
	for _, st := range bothStructures {
		rt.perUnit[st] = chip.StructSize(st)
		rt.acc[st] = map[int][]rawAccess{}
	}
	d.SetTracer(rt)
	if err := hp.Run(d); err != nil {
		t.Fatal(err)
	}
	return rt, rt.Liveness(), d.Stats()
}

// TestLiveMapMatchesDefinition holds the compacted map against the
// definition on the raw trace, for every touched entry of every benchmark
// on both Mini chips, at every cycle where the answer can change: each
// access's stamp, the cycles beside it, and both ends of the run.
func TestLiveMapMatchesDefinition(t *testing.T) {
	for _, chip := range []*chips.Chip{chips.MiniNVIDIA(), chips.MiniAMD()} {
		for _, bench := range workloads.All() {
			rt, m, stats := traceRun(t, chip, bench)
			for _, st := range bothStructures {
				probes := 0
				for k, acc := range rt.acc[st] {
					f := gpu.Fault{Structure: st, Unit: k / rt.perUnit[st], Entry: k % rt.perUnit[st]}
					probe := func(c int64) {
						if c < 0 || c >= stats.Cycles {
							return
						}
						f.Cycle = c
						probes++
						if want := liveByDefinition(acc, c); m.Dead(f) == want {
							t.Fatalf("%s/%s: %v: map says dead=%v, the trace says live=%v", chip.Name, bench.Name, f, !want, want)
						}
					}
					probe(0)
					probe(stats.Cycles - 1)
					for _, a := range acc {
						probe(a.cycle - 1)
						probe(a.cycle)
						probe(a.cycle + 1)
					}
				}
				if bench.UsesLocal || st == gpu.RegisterFile {
					if probes == 0 {
						t.Errorf("%s/%s/%s: no access traced", chip.Name, bench.Name, st)
					}
				}
				// An entry the run never touched is dead at any cycle.
				f := gpu.Fault{Structure: st, Unit: chip.Units - 1, Entry: chip.StructSize(st) - 1, Cycle: stats.Cycles / 2}
				if _, touched := rt.acc[st][f.Unit*rt.perUnit[st]+f.Entry]; !touched && !m.Dead(f) {
					t.Errorf("%s/%s: untouched %v is not dead", chip.Name, bench.Name, f)
				}
			}
		}
	}
}

// TestLiveMapRefusesWhatItCannotAnswer: outside the structure, outside
// the stamp width, or with no map at all, nothing is dead.
func TestLiveMapRefusesWhatItCannotAnswer(t *testing.T) {
	chip := chips.MiniNVIDIA()
	bench, err := workloads.ByName("vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	_, m, _ := traceRun(t, chip, bench)
	ok := gpu.Fault{Structure: gpu.LocalMemory, Unit: 0, Entry: 0, Cycle: 5}
	if !m.Dead(ok) {
		t.Fatal("vectoradd never touches local memory, yet a flip there is not dead")
	}
	for name, f := range map[string]gpu.Fault{
		"unit":      {Structure: gpu.LocalMemory, Unit: chip.Units, Cycle: 5},
		"entry":     {Structure: gpu.LocalMemory, Entry: chip.StructSize(gpu.LocalMemory), Cycle: 5},
		"negative":  {Structure: gpu.LocalMemory, Entry: -1, Cycle: 5},
		"cycle":     {Structure: gpu.LocalMemory, Cycle: 1 << 32},
		"structure": {Structure: 2, Cycle: 5},
	} {
		if m.Dead(f) {
			t.Errorf("out-of-range %s: %v answered dead", name, f)
		}
	}
	if (*ace.Liveness)(nil).Dead(ok) || (&ace.Liveness{}).Dead(ok) {
		t.Error("a missing map answered dead")
	}
	// A recorder that met an access it cannot place keeps no table.
	d, err := devices.New(chip)
	if err != nil {
		t.Fatal(err)
	}
	rec := ace.NewRecorder(d)
	rec.RegAccess(0, 0, 1<<32, false)
	rec.LocalAccess(0, 8, 4, 7, true)
	rec.LocalAccess(0, 8, 4, 3, false) // time running backwards
	if m := rec.Liveness(); m[gpu.RegisterFile] != nil || m[gpu.LocalMemory] != nil {
		t.Error("a recorder with an unplaceable access still built a table")
	}
}

// TestPruneBoundarySweep pins the ordering the proof rests on — a flip at
// cycle t precedes every access stamped >= t — where it could be off by
// one: for a register that is written, read, and read then rewritten in
// one cycle, and for a local-memory byte that is written and read, every
// cycle of the run is tried, and wherever the map says dead the
// simulation must say Masked.
func TestPruneBoundarySweep(t *testing.T) {
	if raceEnabled {
		t.Skip("3,500 simulations on one goroutine")
	}
	bench, err := workloads.ByName("dwtHaar1D")
	if err != nil {
		t.Fatal(err)
	}
	for _, chip := range []*chips.Chip{chips.MiniNVIDIA(), chips.MiniAMD()} {
		rt, m, stats := traceRun(t, chip, bench)
		g, err := runGolden(chip, bench, Checkpoint{}, false)
		if err != nil {
			t.Fatal(err)
		}
		in, err := acquireReplica(Campaign{Chip: chip, Benchmark: bench})
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range bothStructures {
			// The entry with the most kinds of boundary, then the most of
			// them.
			best, bestScore := -1, 0
			for k, acc := range rt.acc[st] {
				reads, writes, rw := 0, 0, 0
				for i, a := range acc {
					switch {
					case !a.write:
						reads++
					case i > 0 && !acc[i-1].write && acc[i-1].cycle == a.cycle:
						rw++
					default:
						writes++
					}
				}
				score := min(reads, 1)<<40 + min(writes, 1)<<40 + min(rw, 1)<<40 + len(acc)
				if score > bestScore || score == bestScore && k < best {
					best, bestScore = k, score
				}
			}
			if want := 2; st == gpu.RegisterFile {
				want = 3
				if bestScore>>40 < want {
					t.Fatalf("%s/%s: no register is written, read, and read then rewritten in one cycle", chip.Name, st)
				}
			} else if bestScore>>40 < want {
				t.Fatalf("%s/%s: no byte is both written and read", chip.Name, st)
			}
			f := gpu.Fault{Structure: st, Unit: best / rt.perUnit[st], Entry: best % rt.perUnit[st], Bit: 1}
			dead, flips := 0, 0
			was := false
			for f.Cycle = 0; f.Cycle < stats.Cycles; f.Cycle++ {
				d := m.Dead(f)
				if d != was {
					was = d
					flips++
				}
				if !d {
					continue
				}
				dead++
				if o, _, _ := classify(in.d, in.hp, g, g.ladder, f, g.cycles*DefaultWatchdogFactor); o != gpu.OutcomeMasked {
					t.Fatalf("%s: %v is dead by the map and %v when simulated", chip.Name, f, o)
				}
			}
			t.Logf("%s/%s unit %d entry %d: %d accesses, %d of %d cycles dead and simulated, %d boundaries", chip.Name, st, f.Unit, f.Entry, len(rt.acc[st][best]), dead, stats.Cycles, flips)
			if dead == 0 || int64(dead) == stats.Cycles {
				t.Errorf("%s/%s: %d of %d cycles dead: the sweep crossed no boundary", chip.Name, st, dead, stats.Cycles)
			}
		}
	}
}

// TestPruneInvariantsOverFigureGrid: over the Mini figure grid, an
// injection that is not Masked lies in a live span (the per-sample form
// of core's TestFIWithinACEBound), and the live entry-cycles of a
// structure equal its ACE entry-cycles, both as the golden run's one
// recorder summed them: the two definitions part only on a stray access
// or a read of an entry not written since its allocation, and the suite
// makes neither.
func TestPruneInvariantsOverFigureGrid(t *testing.T) {
	for _, chip := range []*chips.Chip{chips.MiniNVIDIA(), chips.MiniAMD()} {
		for _, bench := range workloads.All() {
			golden, err := NewGolden(chip, bench)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range bothStructures {
				if st == gpu.LocalMemory && !bench.UsesLocal {
					continue
				}
				if live, aceCycles := golden.live[st].EntryCycles(); live != aceCycles || live == 0 {
					t.Errorf("%s/%s/%s: %v live entry-cycles, %v ACE", chip.Name, bench.Name, st, live, aceCycles)
				}
				res, err := Run(Campaign{
					Chip: chip, Benchmark: bench, Structure: st, Golden: golden,
					Injections: 60, Seed: CellSeed(chip.Name, bench.Name, st), Detail: true, unpruned: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				for i, rec := range res.Records {
					if rec.Outcome != gpu.OutcomeMasked && golden.live.Dead(rec.Fault) {
						t.Errorf("%s/%s: injection #%d %v is %v outside every live span", chip.Name, bench.Name, i, rec.Fault, rec.Outcome)
					}
				}
			}
		}
	}
}

// TestDeadCampaignIsAudited: in a campaign whose every sample is dead —
// most cells of the figures — the injections whose index is a multiple of
// auditEvery are simulated and the rest are not, and the accounting says
// so.
func TestDeadCampaignIsAudited(t *testing.T) {
	bench, err := workloads.ByName("vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	c := Campaign{Chip: chips.MiniNVIDIA(), Benchmark: bench, Structure: gpu.LocalMemory, Injections: 50, Seed: 3, Policy: Config{Workers: 2}}
	pruned := telemetry.InjectPruned.Value()
	sims := telemetry.FullReplays.Value() + telemetry.CkptRestores.Value()
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[gpu.OutcomeMasked] != 50 || res.Injections != 50 {
		t.Fatalf("outcomes %v over %d injections, want 50 Masked", res.Outcomes, res.Injections)
	}
	audited := int64((50 + auditEvery - 1) / auditEvery)
	if d := telemetry.InjectPruned.Value() - pruned; d != 50-audited {
		t.Errorf("%d of 50 injections accounted as pruned, want %d", d, 50-audited)
	}
	if d := telemetry.FullReplays.Value() + telemetry.CkptRestores.Value() - sims; d != audited {
		t.Errorf("%d simulations accounted, want the %d audited", d, audited)
	}
}

// TestAuditCatchesABrokenMap: a liveness map that calls a consumed flip
// dead — what an untraced access path would produce — fails the campaign
// at the first audited injection that is not Masked, instead of reporting
// an AVF of zero.
func TestAuditCatchesABrokenMap(t *testing.T) {
	chip := chips.MiniNVIDIA()
	bench, err := workloads.ByName("matrixMul")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewGolden(chip, bench)
	if err != nil {
		t.Fatal(err)
	}
	c := Campaign{Chip: chip, Benchmark: bench, Structure: gpu.RegisterFile, Injections: 300, Seed: 1, Golden: ref, Detail: true, unpruned: true}
	all, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	hit := false
	for i, rec := range all.Records {
		hit = hit || i%auditEvery == 0 && rec.Outcome != gpu.OutcomeMasked
	}
	if !hit {
		t.Fatal("no audited injection of the campaign is other than Masked: pick another seed")
	}
	// The same reference run with a map in which nothing is ever read:
	// a recorder that met no access.
	d, err := devices.New(chip)
	if err != nil {
		t.Fatal(err)
	}
	blind := &Golden{chip: ref.chip, bench: ref.bench, outputs: ref.outputs, bytes: ref.bytes,
		cycles: ref.cycles, stats: ref.stats, ladder: ref.ladder, live: ace.NewRecorder(d).Liveness()}
	c.Golden, c.unpruned = blind, false
	if res, err := Run(c); err == nil || !strings.Contains(err.Error(), "audit") {
		t.Fatalf("result %+v, error %v from a campaign over a map that proves every flip dead", res, err)
	}
}

// TestReplicaErrorIsReturned: replicas are acquired inside the round now;
// the first failure must still come back from Run.
func TestReplicaErrorIsReturned(t *testing.T) {
	chip := *chips.MiniNVIDIA()
	chip.Name = "Mini NVIDIA (no replica)" // a replica pool no other test fills
	bench, err := workloads.ByName("vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := NewGolden(&chip, bench)
	if err != nil {
		t.Fatal(err)
	}
	broken := chip // same name, so the golden is accepted; no device can be built
	broken.WarpWidth = 0
	res, err := Run(Campaign{Chip: &broken, Benchmark: bench, Structure: gpu.RegisterFile, Injections: 40, Seed: 1, Golden: golden, unpruned: true})
	if err == nil || res != nil {
		t.Fatalf("result %v, error %v from a campaign whose device cannot be built", res, err)
	}
}

// FuzzPruneEquivalence runs the proof on campaigns the matrix does not
// list: any seed, benchmark, structure and burst width on either Mini
// chip.
func FuzzPruneEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(5), false, uint8(1), false)
	f.Add(uint64(7), uint8(8), true, uint8(3), true)
	f.Add(uint64(1<<63), uint8(3), true, uint8(8), false)
	type pair struct {
		amd   bool
		bench uint8
	}
	goldens := map[pair]*Golden{}
	f.Fuzz(func(t *testing.T, seed uint64, benchIdx uint8, local bool, width uint8, amd bool) {
		all := workloads.All()
		p := pair{amd, benchIdx % uint8(len(all))}
		chip, bench := chips.MiniNVIDIA(), all[p.bench]
		if amd {
			chip = chips.MiniAMD()
		}
		golden := goldens[p]
		if golden == nil {
			var err error
			if golden, err = NewGolden(chip, bench); err != nil {
				t.Fatal(err)
			}
			goldens[p] = golden
		}
		st := gpu.RegisterFile
		if local {
			st = gpu.LocalMemory
		}
		if _, err := PruneEquivalence(Campaign{
			Chip: chip, Benchmark: bench, Structure: st, FaultWidth: uint(width % 9),
			Injections: 12, Seed: seed, Golden: golden, Policy: Config{Workers: 1},
		}); err != nil {
			t.Fatal(err)
		}
	})
}
