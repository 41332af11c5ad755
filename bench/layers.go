package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/ace"
	"repro/internal/campaign"
	"repro/internal/chips"
	"repro/internal/devices"
	"repro/internal/experiment"
	"repro/internal/finject"
	"repro/internal/gpu"
	"repro/internal/report"
	"repro/internal/sass"
	"repro/internal/siasm"
	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// spanMetrics derives per-layer timings from spans by name. A metric in
// seconds is the sum over its spans (how much of the run the layer
// took); one in ms or µs is the median call.
var spanMetrics = []struct {
	metric, span, unit string
}{
	{"sass.assemble_s", "sass.assemble", "s"},
	{"siasm.assemble_s", "siasm.assemble", "s"},
	{"workloads.build_s", "workloads.build", "s"},
	{"devices.new_s", "devices.new", "s"},
	{"nvsim.run_s", "nvsim.run", "s"},
	{"amdsim.run_s", "amdsim.run", "s"},
	{"gpu.snapshot_us", "gpu.snapshot", "us"},
	{"gpu.restore_us", "gpu.restore", "us"},
	{"ace.measure_s", "ace.measure", "s"},
	{"finject.golden_s", "finject.golden", "s"},
	{"finject.inject_s", "finject.inject_probe", "s"},
	{"campaign.store_put_us", "campaign.store_put_probe", "us"},
	{"campaign.store_get_us", "campaign.store_get_probe", "us"},
	{"campaign.store_open_ms", "campaign.store_open_probe", "ms"},
	{"campaign.store_json_put_us", "campaign.store_json_put_probe", "us"},
	{"campaign.store_json_open_ms", "campaign.store_json_open_probe", "ms"},
	{"experiment.compile_ms", "experiment.compile", "ms"},
	{"experiment.assemble_ms", "experiment.assemble", "ms"},
	{"report.render_ms", "report.render_probe", "ms"},
	{"wire.result_codec_us", "wire.result_codec", "us"},
	{"telemetry.scrape_ms", "telemetry.scrape", "ms"},
	{"service.submit_ack_ms", "service.submit_ack", "ms"},
	{"service.status_ms", "service.status", "ms"},
	{"service.result_ms", "service.result", "ms"},
	{"worker.lease_rtt_ms", "worker.lease_rtt", "ms"},
	{"worker.execute_ms", "worker.execute", "ms"},
	{"worker.complete_rtt_ms", "worker.complete", "ms"},
	{"worker.queue_wait_ms", "worker.queue_wait", "ms"},
}

// layerNames lists every per-layer metric, in the order BENCHMARK.json
// names them. A traced run reports all of them; one the workload does not
// exercise reads 0.
func layerNames() []string {
	names := make([]string, 0, len(spanMetrics)+len(countMetrics))
	for _, m := range spanMetrics {
		names = append(names, m.metric)
	}
	for _, m := range countMetrics {
		names = append(names, m.name)
	}
	return names
}

// countMetrics are the per-layer metrics that are not a span timing:
// counts, rates and shares, each set by name in the code below. exact
// marks the counts that repeat bit for bit at a fixed seed and fixed
// sizes; -compare requires two such reports to agree on them.
var countMetrics = []struct {
	name, unit string
	exact      bool
}{
	{"nvsim.cycles", "cycles", true},
	{"nvsim.lane_instrs", "count", true},
	{"nvsim.lane_instrs_per_s", "1/s", false},
	{"amdsim.cycles", "cycles", true},
	{"amdsim.lane_instrs", "count", true},
	{"amdsim.lane_instrs_per_s", "1/s", false},
	{"gpu.restore_pages_copied", "count", true},
	{"ace.runs", "count", true},
	{"finject.ladder_snapshots", "count", true},
	{"finject.ladder_bytes", "bytes", true},
	{"finject.injections", "count", true},
	{"finject.injections_per_s", "1/s", false},
	{"finject.sim_cycles", "cycles", true},
	{"finject.ff_cycles", "cycles", true},
	{"finject.ff_share", "share", false},
	{"finject.sim_cycles_per_s", "1/s", false},
	{"finject.sim_cycles_per_injection", "cycles", false},
	{"finject.ckpt_restores", "count", true},
	{"finject.full_replays", "count", true},
	{"finject.restore_pages_copied", "count", false},
	{"finject.restore_pages_shared", "count", false},
	{"finject.early_stops", "count", true},
	{"campaign.sched_overhead_us_per_cell", "us", false},
	{"campaign.store_bytes", "bytes", true},
	{"campaign.lease_cycle_us", "us", false},
	{"campaign.lease_granted", "count", true},
	{"campaign.lease_expiries", "count", true},
	{"wire.bytes_written", "bytes", true},
	{"telemetry.families", "count", true},
	{"service.jobs_per_s", "1/s", false},
	{"service.journal_appends_per_job", "count", false},
	{"service.http_requests", "count", false},
	{"worker.busy_share", "share", false},
	{"client.submit_to_result_p50_s", "s", false},
	{"client.submit_to_result_p95_s", "s", false},
	{"client.warm_submit_to_result_p50_s", "s", false},
	{"client.retries", "count", false},
	{"bench.trace_overhead_share", "share", false},
	{"bench.unattributed_share", "share", false},
}

// addLayers turns a traced run into the report's per-layer metrics: the
// spans of the traced repetitions, then one probe of every layer over
// the workload's own cells, then the trace file.
func addLayers(rep *WorkloadReport, cfg runCfg, tr *tracer, unitSpan string, untraced, traced []unit, specs []experiment.Spec) error {
	rep.Layers = map[string]Summary{}
	for _, m := range countMetrics {
		rep.Layers[m.name] = single(m.unit, 0)
	}
	set := rep.setLayer

	// The traced repetitions against the untraced ones of the same run,
	// both in seconds of the calm reference host.
	var uw, tw []float64
	for _, u := range untraced {
		uw = append(uw, u.normWall)
	}
	for _, u := range traced {
		tw = append(tw, u.normWall)
	}
	set("bench.trace_overhead_share", median(tw)/median(uw)-1)
	set("bench.unattributed_share", unattributedShare(tr.snapshot(), unitSpan))

	if err := probeLayers(tr, cfg, specs, set); err != nil {
		return err
	}

	spans := tr.snapshot()
	for _, m := range spanMetrics {
		d := durations(spans, m.span)
		switch m.unit {
		case "s":
			rep.Layers[m.metric] = single("s", sum(d))
		case "ms":
			rep.Layers[m.metric] = summarize("ms", scale(d, 1e3))
		case "us":
			rep.Layers[m.metric] = summarize("us", scale(d, 1e6))
		}
	}
	if cfg.traceOut != "" {
		if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
			return err
		}
		if err := writeChromeTrace(cfg.traceOut, spans); err != nil {
			return err
		}
		rep.TraceFile = cfg.traceOut
	}
	return nil
}

// setLayer sets a count metric of the traced run.
func (r *WorkloadReport) setLayer(name string, v float64) {
	s, ok := r.Layers[name]
	if !ok {
		panic("layer metric not in countMetrics: " + name)
	}
	s.Value, s.Q1, s.Q3, s.Min, s.Max = v, v, v, v, v
	r.Layers[name] = s
}

func scale(v []float64, by float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * by
	}
	return out
}

// probeLayers calls every layer of the injection path once over the
// workload's own inputs — the cells, pairs and specs its repetitions
// use — under one span per call.
func probeLayers(tr *tracer, cfg runCfg, specs []experiment.Spec, set func(string, float64)) error {
	root := tr.begin("bench.probes", "", -1)
	defer tr.end(root)
	span := func(name, id string, f func() error) error {
		s := tr.begin(name, id, root)
		defer tr.end(s)
		return f()
	}

	cells, err := distinctCells(specs)
	if err != nil {
		return err
	}
	type pair struct {
		chip  *chips.Chip
		bench *workloads.Benchmark
	}
	var pairs []pair
	seen := map[[2]string]bool{}
	for _, pc := range cells {
		if k := [2]string{pc.Chip.Name, pc.Benchmark.Name}; !seen[k] {
			seen[k] = true
			pairs = append(pairs, pair{pc.Chip, pc.Benchmark})
		}
	}

	// Assemblers and host-program builds: every kernel of both dialects.
	for _, src := range workloads.KernelSources(gpu.NVIDIA) {
		if err := span("sass.assemble", "", func() error { _, err := sass.Assemble(src); return err }); err != nil {
			return err
		}
	}
	for _, src := range workloads.KernelSources(gpu.AMD) {
		if err := span("siasm.assemble", "", func() error { _, err := siasm.Assemble(src); return err }); err != nil {
			return err
		}
	}
	for _, b := range workloads.All() {
		for _, v := range []gpu.Vendor{gpu.NVIDIA, gpu.AMD} {
			if err := span("workloads.build", b.Name, func() error { _, err := b.New(v); return err }); err != nil {
				return err
			}
		}
	}

	// Simulators: one fault-free run per pair on a fresh device, then a
	// snapshot of the finished state and a restore of it into the reset
	// device (every page the run dirtied is copied back).
	sim := map[gpu.Vendor]*struct{ cycles, lanes, secs float64 }{gpu.NVIDIA: {}, gpu.AMD: {}}
	var pagesCopied int64
	for _, p := range pairs {
		id := p.chip.Name + "/" + p.bench.Name
		var d gpu.Device
		if err := span("devices.new", id, func() (err error) { d, err = devices.New(p.chip); return err }); err != nil {
			return err
		}
		hp, err := p.bench.New(p.chip.Vendor)
		if err != nil {
			return err
		}
		name := "nvsim.run"
		if p.chip.Vendor == gpu.AMD {
			name = "amdsim.run"
		}
		secs, err := timed(func() error { return span(name, id, func() error { return hp.Run(d) }) })
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		st := d.Stats()
		acc := sim[p.chip.Vendor]
		acc.cycles += float64(st.Cycles)
		acc.lanes += float64(st.LaneInstructions)
		acc.secs += secs
		var snap gpu.Snapshot
		span("gpu.snapshot", id, func() error { snap = d.Snapshot(); return nil })
		d.Reset()
		rc, _ := d.(gpu.RestoreCoster)
		var c0 int64
		if rc != nil {
			c0, _ = rc.RestorePageStats()
		}
		if err := span("gpu.restore", id, func() error { return d.Restore(snap) }); err != nil {
			return err
		}
		if rc != nil {
			c1, _ := rc.RestorePageStats()
			pagesCopied += c1 - c0
		}
	}
	for v, prefix := range map[gpu.Vendor]string{gpu.NVIDIA: "nvsim", gpu.AMD: "amdsim"} {
		acc := sim[v]
		set(prefix+".cycles", acc.cycles)
		set(prefix+".lane_instrs", acc.lanes)
		if acc.secs > 0 {
			set(prefix+".lane_instrs_per_s", acc.lanes/acc.secs)
		}
	}
	set("gpu.restore_pages_copied", float64(pagesCopied))

	// ACE: the traced run the figure runner makes per pair of every spec
	// whose estimator includes it.
	aceRuns := 0
	for _, s := range specs {
		if s.Estimator == experiment.EstimatorFI {
			continue
		}
		plan, err := s.Compile()
		if err != nil {
			return err
		}
		done := map[[2]string]bool{}
		for _, pc := range plan.Cells {
			k := [2]string{pc.Chip.Name, pc.Benchmark.Name}
			if done[k] {
				continue
			}
			done[k] = true
			d, err := devices.New(pc.Chip)
			if err != nil {
				return err
			}
			hp, err := pc.Benchmark.New(pc.Chip.Vendor)
			if err != nil {
				return err
			}
			if err := span("ace.measure", k[0]+"/"+k[1], func() error { _, _, _, err := ace.Measure(d, hp); return err }); err != nil {
				return err
			}
			aceRuns++
		}
	}
	set("ace.runs", float64(aceRuns))

	// Injection engine: one golden run with its ladder per pair, then
	// every cell of the workload through finject.Run on the shared golden.
	before := scrapeSelf()
	goldens := map[[2]string]*finject.Golden{}
	for _, p := range pairs {
		k := [2]string{p.chip.Name, p.bench.Name}
		if err := span("finject.golden", k[0]+"/"+k[1], func() (err error) {
			goldens[k], err = finject.NewGolden(p.chip, p.bench)
			return err
		}); err != nil {
			return err
		}
	}
	g := scrapeSelf().delta(before)
	set("finject.ladder_snapshots", g["fi_ladder_snapshots_total"])
	set("finject.ladder_bytes", g["fi_ladder_bytes_total"])

	before = scrapeSelf()
	results := map[campaign.CellKey]*finject.Result{}
	injectSecs := 0.0
	for _, pc := range cells {
		c := pc.Campaign
		c.Golden = goldens[[2]string{pc.Chip.Name, pc.Benchmark.Name}]
		key := campaign.SpecOf(c).Key()
		secs, err := timed(func() error {
			return span("finject.inject_probe", string(key), func() (err error) { results[key], err = finject.Run(c); return err })
		})
		if err != nil {
			return err
		}
		injectSecs += secs
	}
	d := scrapeSelf().delta(before)
	inj, simc, ff := d["fi_inject_injections_total"], d["fi_inject_sim_cycles_total"], d["fi_inject_ff_cycles_total"]
	set("finject.injections", inj)
	set("finject.sim_cycles", simc)
	set("finject.ff_cycles", ff)
	set("finject.ckpt_restores", d["fi_inject_ckpt_restores_total"])
	set("finject.full_replays", d["fi_inject_full_replays_total"])
	set("finject.restore_pages_copied", d["fi_inject_restore_pages_copied_total"])
	set("finject.restore_pages_shared", d["fi_inject_restore_pages_shared_total"])
	set("finject.early_stops", d["fi_inject_early_stops_total"])
	if inj > 0 && injectSecs > 0 {
		set("finject.ff_share", ff/(ff+simc))
		set("finject.sim_cycles_per_injection", simc/inj)
		set("finject.injections_per_s", inj/injectSecs)
		set("finject.sim_cycles_per_s", simc/injectSecs)
	}

	// Scheduler: dispatch, keying and singleflight over the workload's
	// cells with an executor that answers at once.
	batch := make([]finject.Campaign, len(cells))
	for i, pc := range cells {
		batch[i] = pc.Campaign
	}
	sched := campaign.New(campaign.Config{Store: campaign.NewMemoryStore(0), Executor: cannedExecutor(results)})
	secs, err := timed(func() error { _, err := sched.RunBatch(context.Background(), batch, nil); return err })
	if err != nil {
		return err
	}
	set("campaign.sched_overhead_us_per_cell", secs*1e6/float64(len(cells)))

	// Stores: append every real result, close, reopen, read every key —
	// in the binary format, and in the JSON one while it exists.
	wireBefore := telemetry.WireBytesWritten.Value()
	for _, f := range []struct{ format, infix string }{{campaign.FormatBinary, ""}, {campaign.FormatJSON, "json_"}} {
		path := filepath.Join(cfg.dir, "probe-"+f.format+".store")
		st, err := campaign.OpenStore(path, f.format)
		if err != nil {
			return err
		}
		for _, pc := range cells {
			key := campaign.SpecOf(pc.Campaign).Key()
			if err := span("campaign.store_"+f.infix+"put_probe", string(key), func() error { return st.Put(key, results[key]) }); err != nil {
				st.Close()
				return err
			}
		}
		if err := st.Close(); err != nil {
			return err
		}
		if err := span("campaign.store_"+f.infix+"open_probe", "", func() (err error) { st, err = campaign.OpenStore(path, f.format); return err }); err != nil {
			return err
		}
		if f.format == campaign.FormatBinary {
			for _, pc := range cells {
				key := campaign.SpecOf(pc.Campaign).Key()
				if err := span("campaign.store_get_probe", string(key), func() error {
					_, ok, err := st.Get(key)
					if err == nil && !ok {
						err = fmt.Errorf("store lost %s", key)
					}
					return err
				}); err != nil {
					st.Close()
					return err
				}
			}
			if fi, err := os.Stat(path); err == nil {
				set("campaign.store_bytes", float64(fi.Size()))
			}
			set("wire.bytes_written", float64(telemetry.WireBytesWritten.Value()-wireBefore))
		}
		st.Close()
	}

	if err := probeLeaseQueue(cells[0].Campaign, cfg.sz.LeaseTasks, set); err != nil {
		return err
	}

	// Experiment layer: compile every spec; assemble tables and derived
	// metrics of the injection-only specs over a store that has every
	// cell; render every result.
	mem := campaign.NewMemoryStore(0)
	for k, r := range results {
		if err := mem.Put(k, r); err != nil {
			return err
		}
	}
	warm := &experiment.Runner{Scheduler: campaign.New(campaign.Config{Store: mem, Executor: cannedExecutor(nil)})}
	for _, s := range specs {
		if err := span("experiment.compile", s.Name, func() error { _, err := s.Compile(); return err }); err != nil {
			return err
		}
		if s.Estimator != experiment.EstimatorFI {
			continue
		}
		var res *experiment.Result
		if err := span("experiment.assemble", s.Name, func() (err error) { res, err = warm.Run(context.Background(), s); return err }); err != nil {
			return err
		}
		if err := span("report.render_probe", s.Name, func() error { return report.WriteExperimentJSON(io.Discard, res) }); err != nil {
			return err
		}
	}

	// Wire codec: every result through EncodeResult and DecodeResult.
	for k, r := range results {
		if err := span("wire.result_codec", string(k), func() error {
			w := wire.NewWriter(nil)
			finject.EncodeResult(w, r)
			_, err := finject.DecodeResult(wire.NewReader(w.Bytes()))
			return err
		}); err != nil {
			return err
		}
	}

	// Telemetry: render and parse the registry, as a scraper would.
	for i := 0; i < 5; i++ {
		span("telemetry.scrape", "", func() error { scrapeSelf(); return nil })
	}
	var sb strings.Builder
	if err := telemetry.Default.WritePrometheus(&sb); err != nil {
		return err
	}
	families, err := telemetry.ValidateExposition(strings.NewReader(sb.String()))
	if err != nil {
		return err
	}
	set("telemetry.families", float64(families))
	return nil
}

// cannedExecutor answers cells from a map; a cell it does not have is a
// bug in the probe (the store in front of it should have answered).
type cannedExecutor map[campaign.CellKey]*finject.Result

func (e cannedExecutor) Execute(_ context.Context, req campaign.Request) (*finject.Result, error) {
	if r, ok := e[req.Key]; ok {
		return r, nil
	}
	return nil, fmt.Errorf("probe: cell %s reached the executor", req.Key)
}

// probeLeaseQueue pushes distinct cells of two tenants (2,400 at full
// size) through an in-process LeaseQueue: producers block in Do, one
// consumer leases and completes. The timed part is the consumer's
// lease-complete cycle.
func probeLeaseQueue(cell finject.Campaign, tasks int, set func(string, float64)) error {
	q := campaign.NewLeaseQueue(campaign.DefaultLeaseTTL)
	before := scrapeSelf()
	res := &finject.Result{Injections: 1}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, tasks) // one slot per producer, so none blocks
	for i := 0; i < tasks; i++ {
		spec := campaign.SpecOf(cell)
		spec.Seed = uint64(i + 1)
		t := campaign.Task{Spec: spec, Tenant: []string{"tenant-a", "tenant-b"}[i%2]}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := q.Do(ctx, t); err != nil {
				errs <- err
			}
		}()
	}
	for q.Stats().Pending < tasks {
		runtime.Gosched()
	}
	start := time.Now()
	for done := 0; done < tasks; {
		for _, l := range q.Lease("bench", 1) {
			if err := q.Complete(l.ID, res, ""); err != nil {
				return err
			}
			done++
		}
	}
	elapsed := time.Since(start)
	wg.Wait()
	select {
	case err := <-errs:
		return fmt.Errorf("lease queue probe: %w", err)
	default:
	}
	d := scrapeSelf().delta(before)
	set("campaign.lease_cycle_us", elapsed.Seconds()*1e6/float64(tasks))
	set("campaign.lease_granted", d["fi_lease_granted_total"])
	set("campaign.lease_expiries", d["fi_lease_expiries_total"])
	return nil
}
