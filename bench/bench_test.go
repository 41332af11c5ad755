package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// harness re-executes itself (figures_warm warms its store by running
// figures_cold in a child process), and under go test "itself" is this
// binary.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {300, 95}, {200, 95}, {199, 90},
		{100, 90}, {99, 75}, {40, 75}, {39, 50}, {3, 50}, {0, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		// The rule itself: at least ten samples lie beyond the percentile.
		if p := tailPercentile(c.n); p > 50 && math.Round(float64(c.n)*(100-p))/100 < 10 {
			t.Errorf("n=%d: p%g has fewer than ten samples beyond it", c.n, p)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := summarize("s", []float64{5, 1, 4, 2, 3})
	if s.Value != 3 || s.Q1 != 2 || s.Q3 != 4 || s.N != 5 {
		t.Fatalf("summarize = %+v", s)
	}
	if got := s.spread(); got != 2.0/3 {
		t.Fatalf("spread = %g", got)
	}
	if s := summarize("s", []float64{1, 2}); s.Value != 1.5 {
		t.Fatalf("median of two = %g", s.Value)
	}
	if s := summarize("s", nil); s.Value != 0 || s.N != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

// TestHostMeter: a unit's time is the time of its stretches without the
// reference samples between them, and its normalised time is each
// stretch's divided by how much slower than calm the two samples around
// it ran.
func TestHostMeter(t *testing.T) {
	const scale = 0.02
	busy := 0.0
	h := newHostMeter(scale, func() float64 { return busy })
	if len(h.samples) != 0 {
		t.Fatalf("the warm-up samples were kept: %v", h.samples)
	}
	t0 := time.Now()
	h.begin(false)
	time.Sleep(20 * time.Millisecond)
	busy += 0.5
	h.split()
	time.Sleep(10 * time.Millisecond)
	busy += 0.25
	u := h.end(7)
	elapsed := time.Since(t0).Seconds()
	if len(h.samples) != 3 {
		t.Fatalf("%d samples around two stretches, want 3", len(h.samples))
	}
	if u.cells != 7 || u.cpu != 0.75 {
		t.Fatalf("unit %+v", u)
	}
	if u.wall < 0.030 || u.wall > elapsed-sum(h.samples)+0.002 {
		t.Fatalf("wall %g s: two sleeps of 30 ms in all, %g s elapsed of which %g s in samples", u.wall, elapsed, sum(h.samples))
	}
	calm := refCalmSeconds * scale
	s := h.samples
	slow1, slow2 := (s[0]+s[1])/2/calm, (s[1]+s[2])/2/calm
	if want := 0.5/slow1 + 0.25/slow2; math.Abs(u.normCPU-want) > 1e-12 {
		t.Fatalf("normalised CPU time %g, want %g", u.normCPU, want)
	}
	lo, hi := min(slow1, slow2), max(slow1, slow2)
	if sd := u.slowdown(); sd < lo-1e-9 || sd > hi+1e-9 {
		t.Fatalf("slowdown %g outside its stretches' [%g, %g]", sd, lo, hi)
	}

	// The sample that ended one unit starts the one that follows directly.
	h.begin(true)
	h.end(0)
	if len(h.samples) != 4 {
		t.Fatalf("a unit right after another took %d samples, want 1", len(h.samples)-3)
	}
	h.begin(false)
	h.coarse = true
	h.split() // does nothing on a traced unit
	h.end(0)
	if len(h.samples) != 6 {
		t.Fatalf("a unit on its own took %d samples, want 2", len(h.samples)-4)
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "unit", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "a", Parent: 0, Start: ms(10), End: ms(30)},
		{Name: "b", Parent: 0, Start: ms(20), End: ms(50)}, // overlaps a: counted once
		{Name: "c", Parent: 0, Start: ms(70), End: ms(80)},
		{Name: "d", Parent: 1, Start: ms(12), End: ms(22)},  // a grandchild covers a, not the unit
		{Name: "e", Parent: 0, Start: ms(95), End: ms(120)}, // clipped to its parent
	}
	self := selfTimes(spans)
	want := []time.Duration{ms(100 - 40 - 10 - 5), ms(10), ms(30), ms(10), ms(10), ms(25)}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	if got := unattributedShare(spans, "unit"); math.Abs(got-0.45) > 1e-12 {
		t.Fatalf("unattributed share %g, want 0.45", got)
	}
	if got := durations(spans, "a"); len(got) != 1 || got[0] != 0.02 {
		t.Fatalf("durations = %v", got)
	}

	// A nil tracer records nothing and hands out no indices.
	var tr *tracer
	tr.end(tr.begin("x", "", -1))
	tr.add(span{})
	tr.setID(-1, "id")
	if tr.snapshot() != nil {
		t.Fatal("nil tracer has spans")
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Ph string
			Ts, Dur  float64
			Tid      int
		}
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != len(spans) || doc.TraceEvents[0].Name != "unit" || doc.TraceEvents[0].Dur != 100000 {
		t.Fatalf("trace events %+v", doc.TraceEvents)
	}
	// a and b overlap, so they are on different lanes.
	if doc.TraceEvents[1].Tid == doc.TraceEvents[3].Tid {
		t.Fatalf("overlapping spans share lane %d", doc.TraceEvents[1].Tid)
	}
}

func TestParsePromDelta(t *testing.T) {
	const before = `# HELP fi_jobs_submitted_total Jobs accepted, by tenant.
# TYPE fi_jobs_submitted_total counter
fi_jobs_submitted_total{tenant="a"} 3
fi_jobs_submitted_total{tenant="b"} 4
# TYPE fi_lease_expiries_total counter
fi_lease_expiries_total 0
`
	const after = `# TYPE fi_jobs_submitted_total counter
fi_jobs_submitted_total{tenant="a"} 10
fi_jobs_submitted_total{tenant="b {x}"} 4 1700000000
fi_lease_expiries_total 0
fi_http_request_seconds_bucket{route="/v1/jobs",le="+Inf"} 7
fi_http_request_seconds_sum{route="/v1/jobs"} 1.5e-3
fi_new_total 2
`
	b, err := parseProm(strings.NewReader(before))
	if err != nil {
		t.Fatal(err)
	}
	a, err := parseProm(strings.NewReader(after))
	if err != nil {
		t.Fatal(err)
	}
	if b["fi_jobs_submitted_total"] != 7 {
		t.Fatalf("label sets not summed: %v", b)
	}
	d := a.delta(b)
	want := counters{
		"fi_jobs_submitted_total": 7, "fi_lease_expiries_total": 0, "fi_new_total": 2,
		"fi_http_request_seconds_bucket": 7, "fi_http_request_seconds_sum": 1.5e-3,
	}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("delta = %v, want %v", d, want)
	}
	for _, bad := range []string{"fi_x{a=\"b\" 1\n", "fi_x notanumber\n", "fi_x\n"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) accepted", bad)
		}
	}
	// The program's own registry goes through the same parser.
	if self := scrapeSelf(); len(self) == 0 {
		t.Fatal("own registry scraped empty")
	}
}

func TestSeedDeterminesSpecs(t *testing.T) {
	keysOf := func(seed uint64) []string {
		specs, err := figureSpecs(toySizes, seed)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, deepSpecs(toySizes, seed)...)
		specs = append(specs, fleetSpec(toySizes, seed, 0, 0), fleetSpec(toySizes, seed, 1, 0), fleetSpec(toySizes, seed, 0, 1))
		cells, err := distinctCells(specs)
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, pc := range cells {
			keys = append(keys, fmt.Sprintf("%s/%s/%s seed %d", pc.Chip.Name, pc.Benchmark.Name, pc.Structure, pc.Campaign.Seed))
		}
		return keys
	}
	a, again, b := keysOf(7), keysOf(7), keysOf(8)
	if !reflect.DeepEqual(a, again) {
		t.Fatal("the same seed gave different cells")
	}
	if len(a) != len(b) {
		t.Fatalf("seed changed the number of cells: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] == b[i] {
			t.Fatalf("cell %d keeps its fault sample across seeds: %s", i, a[i])
		}
	}
	// No two fleet jobs of a run share a seed.
	seen := map[uint64]bool{}
	for c := 0; c < 2; c++ {
		for j := 0; j < 500; j++ {
			s := fleetSpec(fullSizes, 1, c, j).Seed
			if s == 0 || seen[s] {
				t.Fatalf("client %d job %d: seed %d is zero or repeats", c, j, s)
			}
			seen[s] = true
		}
	}

	e, err := func() (figureExpect, error) {
		specs, err := figureSpecs(fullSizes, 1)
		if err != nil {
			return figureExpect{}, err
		}
		return expectFigures(specs)
	}()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's grid: 40+28+80 cells, 80 distinct, 40 pairs.
	want := figureExpect{Cells: 148, Runs: 80, Hits: 68, Goldens: 40, Injections: 80 * fullSizes.FigInjections}
	if e != want {
		t.Fatalf("figure grid %+v, want %+v", e, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	s := func(v, q1, q3 float64) Summary { return Summary{Value: v, Q1: q1, Q3: q3, N: 9, Unit: "s"} }
	lower := endToEndMetric{lower: true, bound: 0.1}
	higher := endToEndMetric{bound: 0.1}
	exact := endToEndMetric{lower: true}
	zero := endToEndMetric{lower: true, zero: true}
	rss := endToEndMetric{lower: true, bound: 0.25}
	for _, c := range []struct {
		name       string
		m          endToEndMetric
		base, cand Summary
		same       bool
		want       string
	}{
		{"within", lower, s(1, .99, 1.01), s(1.09, 1.08, 1.1), true, "ok"},
		{"slower", lower, s(1, .99, 1.01), s(1.11, 1.1, 1.12), true, "regressed"},
		{"faster", lower, s(1, .99, 1.01), s(0.5, .49, .51), true, "ok"},
		{"noisy base", lower, s(1, .9, 1.05), s(1.5, 1.49, 1.51), true, "unresolved"},
		{"noisy new", lower, s(1, .99, 1.01), s(1, .9, 1.1), true, "unresolved"},
		{"rate down", higher, s(100, 99, 101), s(90, 89, 91), true, "regressed"},
		{"rate up", higher, s(100, 99, 101), s(120, 119, 121), true, "ok"},
		{"count equal", exact, s(7000, 7000, 7000), s(7000, 7000, 7000), true, "ok"},
		{"count moved", exact, s(7000, 7000, 7000), s(7001, 7001, 7001), true, "regressed"},
		{"count, other seed", exact, s(7000, 7000, 7000), s(7001, 7001, 7001), false, "ok"},
		{"failures", zero, single("share", 0), single("share", 0.01), false, "regressed"},
		{"failures on both sides", zero, single("share", 0.01), single("share", 0.01), true, "regressed"},
		{"no failures", zero, single("share", 0.01), single("share", 0), true, "ok"},
		{"one sample each", rss, single("MiB", 100), single("MiB", 120), true, "ok"},
		{"one sample each, over", rss, single("MiB", 100), single("MiB", 126), true, "regressed"},
	} {
		if got := verdictOf(c.m, c.base, c.cand, c.same); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareSets: with several runs a side, the spread that decides is
// the one between the runs' medians.
func TestCompareSets(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seed uint64, wall float64, cycles int64) string {
		r := newReport(runCfg{workload: "inject_deep", seed: seed, sz: toySizes})
		r.Attempted = 10
		r.Exact["finject.sim_cycles"] = cycles
		r.EndToEnd["wall_s"] = Summary{Value: wall, Q1: wall * 0.99, Q3: wall * 1.01, Unit: "s", N: 9}
		buf, err := json.Marshal(&Report{Workloads: []*WorkloadReport{r}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	set := func(paths ...string) string { return strings.Join(paths, ",") }
	calm := set(write("a1", 1, 1.00, 70), write("a2", 1, 1.02, 70), write("a3", 1, 0.98, 70))
	same := set(write("b1", 1, 1.05, 70), write("b2", 1, 1.03, 70), write("b3", 1, 1.07, 70))
	slow := set(write("c1", 1, 1.40, 70), write("c2", 1, 1.42, 70), write("c3", 1, 1.38, 70))
	noisy := set(write("d1", 1, 1.0, 70), write("d2", 1, 1.9, 70), write("d3", 1, 1.4, 70))
	drift := set(write("e1", 1, 1.0, 70), write("e2", 1, 1.0, 71))
	seeds := set(write("f1", 1, 1.0, 70), write("f2", 2, 1.0, 75))
	for _, c := range []struct {
		name, base, cand, want string
	}{
		{"same commit", calm, same, "ok"},
		{"slower", calm, slow, "regressed"},
		// Each noisy run is tight inside; only the set shows the spread.
		{"noisy host", calm, noisy, "unresolved"},
		{"single runs", write("g1", 1, 1.0, 70), write("g2", 1, 1.9, 70), "regressed"},
	} {
		var out bytes.Buffer
		err := compareReports(&out, c.base, c.cand)
		if (err == nil) != (c.want == "ok") || !strings.Contains(out.String(), "bound 25%  "+c.want) {
			t.Errorf("%s: want wall_s %s, got %v\n%s", c.name, c.want, err, out.String())
		}
	}
	var out bytes.Buffer
	if err := compareReports(&out, calm, drift); err == nil || !strings.Contains(out.String(), "failed_share") || !strings.Contains(out.String(), "must be 0  regressed") {
		t.Errorf("a set whose runs disagree on an exact count passed:\n%s", out.String())
	}
	out.Reset()
	if err := compareReports(&out, seeds, seeds); err != nil || !strings.Contains(out.String(), "several seeds") {
		t.Errorf("a set over several seeds against itself: %v\n%s", err, out.String())
	}
}

// TestBenchmarkJSON holds BENCHMARK.json and the program to each other:
// the driver refuses a run whose metrics are not exactly the ones named.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	names = nil
	bounds := map[string]float64{}
	for _, m := range endToEndBounds {
		bounds[m.name] = m.bound
	}
	for _, m := range doc.EndToEnd {
		names = append(names, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if bounds[m.Name] != m.Bound {
			t.Errorf("%s: bound %g here, %g in -compare", m.Name, m.Bound, bounds[m.Name])
		}
	}
	if !reflect.DeepEqual(names, driverEndToEnd) {
		t.Errorf("end_to_end %v, program prints %v", names, driverEndToEnd)
	}
	names = nil
	for _, m := range doc.PerLayer {
		names = append(names, m.Name)
	}
	if !reflect.DeepEqual(names, layerNames()) {
		t.Errorf("per_layer differs from the program's:\n%v\n%v", names, layerNames())
	}
	if len(names) > 128 || doc.RunSeconds < 1 || doc.RunSeconds > 60 || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("limits: %d per-layer metrics, run_seconds %d, paths %v", len(names), doc.RunSeconds, doc.Paths)
	}
}

// TestSmoke runs all four workloads traced at toy size, so that go test
// exercises the whole harness — child processes, the real fiserver and
// fiworker, the probes, the trace files — in seconds.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots fiserver and fiworker")
	}
	dir := t.TempDir()
	reports := map[string]*WorkloadReport{}
	for _, w := range workloadNames {
		cfg := runCfg{
			workload: w, seed: 3, trace: true, sz: toySizes, toy: true,
			dir: filepath.Join(dir, w), traceOut: filepath.Join(dir, w+".trace.json"),
		}
		rep, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		reports[w] = rep
		if rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: %d of %d checks failed: %v", w, rep.Failed, rep.Attempted, rep.Failures)
		}
		for _, name := range driverEndToEnd {
			if s, ok := rep.EndToEnd[name]; !ok || s.Value <= 0 || s.Unit == "" {
				t.Errorf("%s: end-to-end metric %s = %+v", w, name, s)
			}
		}
		for _, name := range layerNames() {
			if s, ok := rep.Layers[name]; !ok || s.Unit == "" {
				t.Errorf("%s: per-layer metric %s missing", w, name)
			}
		}
		if fi, err := os.Stat(rep.TraceFile); err != nil || fi.Size() == 0 {
			t.Errorf("%s: trace file: %v", w, err)
		}
		var line struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(driverLine(rep)), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted < 1 || len(line.Metrics) != len(layerNames()) {
			t.Errorf("%s: driver line %+v", w, line)
		}
		var out bytes.Buffer
		printWorkload(&out, currentEnv(), rep)
		for _, name := range []string{"wall_s", "failed_share", "bench.unattributed_share", "nproc="} {
			if !strings.Contains(out.String(), name) {
				t.Errorf("%s: printed report lacks %s", w, name)
			}
		}
	}
	full := &Report{Workloads: []*WorkloadReport{reports["figures_cold"], reports["figures_warm"]}}
	crossCheck(full)
	if reports["figures_warm"].Failed != 0 {
		t.Errorf("warm figures differ from cold ones: %v", reports["figures_warm"].Failures)
	}
	// How well the accounting closes is a timing: at toy size a pass is
	// tens of milliseconds, and only full-size runs are held to a tenth.
	for _, w := range workloadNames {
		if u := reports[w].Layers["bench.unattributed_share"].Value; u < 0 || u >= 1 {
			t.Errorf("%s: unattributed share %g outside [0, 1)", w, u)
		}
	}
	fleet := reports["fleet_load"]
	if fleet.EndToEnd["jobs_per_s"].Value <= 0 || fleet.EndToEnd["submit_to_result_p50_s"].Value <= 0 || fleet.FreshJobs == 0 || fleet.Layers["worker.execute_ms"].N == 0 {
		t.Errorf("fleet metrics missing: %+v", fleet.EndToEnd)
	}
	if _, ok := fleet.EndToEnd["sim_cycles_per_injection"]; ok {
		t.Errorf("fleet_load reports sim_cycles_per_injection, which its time-bounded loop does not fix")
	}

	// A report compares clean with itself: counts and digests are equal.
	// Timings measured at toy size spread more than any bound, which
	// -compare rightly calls unresolved, so they are collapsed to their
	// medians first.
	var steady []*WorkloadReport
	for _, w := range []string{"inject_deep", "fleet_load"} {
		r := *reports[w]
		r.EndToEnd = map[string]Summary{}
		for name, s := range reports[w].EndToEnd {
			r.EndToEnd[name] = single(s.Unit, s.Value)
		}
		steady = append(steady, &r)
	}
	path := filepath.Join(dir, "report.json")
	buf, err := json.Marshal(&Report{Env: currentEnv(), Workloads: steady})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := compareReports(&out, path, path); err != nil {
		t.Errorf("a report against itself: %v\n%s", err, out.String())
	}
}
