// Package telemetry is the repo's zero-dependency observability layer:
// a metrics registry rendered in Prometheus text exposition format, span
// tracing exportable as Chrome trace-event JSON, and structured-logging
// helpers that thread job/cell/lease correlation IDs through contexts —
// across the lease wire, so one grep reconstructs a cell's life whether
// it ran in-process or on a remote fiworker.
//
// The layer is provably inert: metrics are plain atomic counters that
// never touch result data, tracing and logging are off unless installed,
// and the differential suite (core.TestFigureJSONTelemetryEquivalence,
// finject's record-stream equivalence test) asserts that figure JSON and
// per-injection record streams are byte-identical with every observer
// running versus none.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a set of named metric families rendered together in
// Prometheus text exposition format. Registration is idempotent: asking
// for an existing name returns the existing metric, so package-level
// instrumentation and tests can share one default registry safely.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one registered metric family.
type family struct {
	name, help, typ string
	metric          sampler
}

// sampler renders a family's sample lines (everything below # HELP and
// # TYPE) with extra, an already-rendered `label="value",` fragment,
// merged into every line's label set.
type sampler interface {
	samples(name, extra string, w io.Writer)
}

// Default is the process-wide registry behind the standard metric
// catalog (catalog.go), GET /metrics and the fiworker sidecar listener.
var Default = NewRegistry()

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// registerAs returns the family registered under name, creating it with
// mk on first use. Asking for a name again as another metric — another
// type, or a labelled family for a plain metric — panics: that is a
// programming error, caught at init time because the catalog registers
// everything up front.
func registerAs[T sampler](r *Registry, name, help, typ string, mk func() T) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, metric: mk()}
		r.families[name] = f
	}
	m, ok := f.metric.(T)
	if !ok {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %s %T (was %s %T)", name, typ, m, f.typ, f.metric))
	}
	return m
}

// Counter returns the registered monotonically increasing counter,
// creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return registerAs(r, name, help, "counter", func() *Counter { return &Counter{} })
}

// Gauge returns the registered gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return registerAs(r, name, help, "gauge", func() *Gauge { return &Gauge{} })
}

// Histogram returns the registered fixed-bucket histogram, creating it
// on first use with the given upper bounds (ascending, +Inf implied).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return registerAs(r, name, help, "histogram", func() *Histogram { return newHistogram(buckets) })
}

// CounterVec returns the registered counter family keyed by one label,
// creating it on first use.
func (r *Registry) CounterVec(name, help, label string) *Vec[*Counter] {
	return registerAs(r, name, help, "counter", func() *Vec[*Counter] {
		return newVec(label, func() *Counter { return &Counter{} })
	})
}

// GaugeVec returns the registered gauge family keyed by one label,
// creating it on first use.
func (r *Registry) GaugeVec(name, help, label string) *Vec[*Gauge] {
	return registerAs(r, name, help, "gauge", func() *Vec[*Gauge] {
		return newVec(label, func() *Gauge { return &Gauge{} })
	})
}

// HistogramVec returns the registered histogram family keyed by one
// label, creating it on first use; the children share the bucket bounds.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *Vec[*Histogram] {
	return registerAs(r, name, help, "histogram", func() *Vec[*Histogram] {
		return newVec(label, func() *Histogram { return newHistogram(buckets) })
	})
}

// WritePrometheus renders every family in text exposition format,
// sorted by name so equal registries render byte-identically.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		f.metric.samples(f.name, "", bw)
	}
	return bw.Flush()
}

// Handler serves the Default registry as a Prometheus scrape target.
func Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		Default.WritePrometheus(w)
	})
}

// Counter is a monotonically increasing integer metric. The zero value
// is ready to use; all methods are safe for concurrent use and cost one
// atomic add — cheap enough for per-injection hot paths.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the exposition to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) samples(name, extra string, w io.Writer) {
	fmt.Fprintf(w, "%s%s %d\n", name, wrapLabels(extra), c.v.Load())
}

// Gauge is an integer metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) samples(name, extra string, w io.Writer) {
	fmt.Fprintf(w, "%s%s %d\n", name, wrapLabels(extra), g.v.Load())
}

// Histogram is a fixed-bucket distribution metric. Buckets are upper
// bounds in ascending order; the +Inf bucket is implicit. Observations
// are two atomic adds plus one CAS loop for the sum.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1, the last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the observation sum
}

// DefBuckets are the default latency buckets in seconds, spanning
// sub-millisecond handlers to multi-second streamed figure runs.
var DefBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.25, 1, 5, 30}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, or the +Inf slot
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) samples(name, extra string, w io.Writer) {
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, extra, formatBound(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, extra, cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, wrapLabels(extra), formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, wrapLabels(extra), h.count.Load())
}

// wrapLabels turns a trailing-comma label fragment into a braced label
// set, or nothing when the fragment is empty.
func wrapLabels(extra string) string {
	if extra == "" {
		return ""
	}
	return "{" + strings.TrimSuffix(extra, ",") + "}"
}

func formatBound(b float64) string { return formatFloat(b) }

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// Vec is a metric family keyed by one label: a child M per label value,
// made on first use, rendered in label-value order.
type Vec[M sampler] struct {
	label string
	mk    func() M
	mu    sync.RWMutex
	m     map[string]M
}

func newVec[M sampler](label string, mk func() M) *Vec[M] {
	return &Vec[M]{label: label, mk: mk, m: make(map[string]M)}
}

// With returns the child for the label value, creating it on first use.
func (v *Vec[M]) With(value string) M {
	v.mu.RLock()
	c, ok := v.m[value]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok = v.m[value]; !ok {
		c = v.mk()
		v.m[value] = c
	}
	return c
}

func (v *Vec[M]) samples(name, extra string, w io.Writer) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	values := make([]string, 0, len(v.m))
	for val := range v.m {
		values = append(values, val)
	}
	sort.Strings(values)
	for _, val := range values {
		v.m[val].samples(name, extra+fmt.Sprintf("%s=%q,", v.label, escapeLabel(val)), w)
	}
}

// escapeLabel escapes a label value per the exposition format; %q in the
// callers then adds the quotes and escapes quotes and backslashes.
func escapeLabel(s string) string {
	return strings.ReplaceAll(s, "\n", `\n`)
}
