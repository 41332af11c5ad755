package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeSemantics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("g", "help")
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same_total", "help")
	b := r.Counter("same_total", "other help ignored")
	if a != b {
		t.Fatal("re-registering a counter returned a different instance")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("idempotent registration did not share state")
	}
}

func TestRegistrationTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("metric", "help")
	r.CounterVec("vec_total", "help", "route")
	for name, again := range map[string]func(){
		"a counter as a gauge":       func() { r.Gauge("metric", "help") },
		"a counter vec as a counter": func() { r.Counter("vec_total", "help") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("re-registering %s did not panic", name)
				}
			}()
			again()
		}()
	}
}

func TestHistogramBucketsAreCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "help", []float64{1, 10})
	for _, v := range []float64{0.5, 0.7, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if got, want := h.Sum(), 106.2; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="10"} 3`,
		`lat_seconds_bucket{le="+Inf"} 4`,
		`lat_seconds_sum 106.2`,
		`lat_seconds_count 4`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestVecRenderingIsSortedAndLabeled(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "help", "route")
	v.With("b").Add(2)
	v.With("a").Inc()
	v.With("q\"b\\s\nn").Inc()
	gv := r.GaugeVec("depth", "help", "tenant")
	gv.With("t2").Set(-3)
	gv.With("t1").Set(5)
	hv := r.HistogramVec("lat_seconds", "help", "route", []float64{1})
	hv.With("a").Observe(0.5)
	hv.With("x\"y\\z\nw").Observe(2)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	ia, ib := strings.Index(out, `req_total{route="a"} 1`), strings.Index(out, `req_total{route="b"} 2`)
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("vec samples missing or unsorted:\n%s", out)
	}
	for _, want := range []string{
		`lat_seconds_bucket{route="a",le="1"} 1`,
		`lat_seconds_sum{route="a"} 0.5`,
		`lat_seconds_count{route="a"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// The gauge family and the escaped label values, byte for byte. A
	// newline in a label value renders as `\\n`, escaped once by
	// escapeLabel and once more by the quoting: these lines pin that too.
	for _, want := range []string{
		"# TYPE depth gauge\ndepth{tenant=\"t1\"} 5\ndepth{tenant=\"t2\"} -3\n",
		`req_total{route="b"} 2` + "\n" + `req_total{route="q\"b\\s\\nn"} 1` + "\n",
		`lat_seconds_bucket{route="x\"y\\z\\nw",le="1"} 0` + "\n" +
			`lat_seconds_bucket{route="x\"y\\z\\nw",le="+Inf"} 1` + "\n" +
			`lat_seconds_sum{route="x\"y\\z\\nw"} 2` + "\n" +
			`lat_seconds_count{route="x\"y\\z\\nw"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing\n%s\nin:\n%s", want, out)
		}
	}
}

func TestExpositionValidatesAndExposesCatalog(t *testing.T) {
	// Exercise a few catalog metrics so vecs have children, then check
	// the Default registry renders a payload our own validator accepts.
	SchedCellRuns.Inc()
	HTTPRequests.With("GET /v1/stats").Inc()
	HTTPLatency.With("GET /v1/stats").Observe(0.003)
	var sb strings.Builder
	if err := Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("default registry fails validation: %v\n%s", err, sb.String())
	}
	if n < 20 {
		t.Fatalf("catalog exposes %d families, want the full catalog (>= 20)", n)
	}
	for _, fam := range []string{
		"fi_sched_cell_runs_total", "fi_lease_queue_depth", "fi_inject_injections_total",
		"fi_inject_pruned_total",
		"fi_store_disk_puts_total", "fi_http_request_seconds",
	} {
		if !strings.Contains(sb.String(), "# TYPE "+fam+" ") {
			t.Errorf("catalog missing family %s", fam)
		}
	}
}

func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	h := r.Histogram("h_seconds", "help", []float64{0.5})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 || h.Sum() != 2000 {
		t.Fatalf("histogram count=%d sum=%v, want 8000/2000", h.Count(), h.Sum())
	}
}
