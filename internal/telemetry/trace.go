package telemetry

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer collects campaign spans — golden run, ladder build, injection
// rounds, cell execution, store compaction — and exports them as Chrome
// trace-event JSON loadable in chrome://tracing or ui.perfetto.dev.
// A Tracer is safe for concurrent use; no Tracer is installed by
// default, in which case StartSpan is a two-load no-op.
type Tracer struct {
	start  time.Time
	mu     sync.Mutex
	events []traceEvent
}

// traceEvent is one Chrome trace-event ("X" complete events only).
type traceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   int64             `json:"ts"`  // µs since trace start
	Dur  int64             `json:"dur"` // µs
	Pid  int               `json:"pid"`
	Tid  uint32            `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// NewTracer builds an empty tracer; its clock starts now.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now()}
}

// global is the installed tracer, nil when tracing is off.
var global atomic.Pointer[Tracer]

// SetTracer installs t as the process tracer (nil disables tracing) and
// returns the previously installed one.
func SetTracer(t *Tracer) *Tracer {
	return global.Swap(t)
}

// StartSpan opens a named span against the installed tracer and returns
// a function that closes it. With no tracer installed the cost is one
// atomic load and the returned closure does nothing, so call sites can
// be unconditional. Correlation IDs in ctx become span args, and the
// span lands on a per-cell trace row so concurrent cells stack visibly.
func StartSpan(ctx context.Context, name string) func() {
	t := global.Load()
	if t == nil {
		return func() {}
	}
	corr := CorrFrom(ctx)
	begin := time.Now()
	return func() {
		end := time.Now()
		var args map[string]string
		if corr != (Corr{}) {
			args = make(map[string]string, 3)
			if corr.Job != "" {
				args["job"] = corr.Job
			}
			if corr.Cell != "" {
				args["cell"] = corr.Cell
			}
			if corr.Lease != "" {
				args["lease"] = corr.Lease
			}
		}
		ev := traceEvent{
			Name: name,
			Ph:   "X",
			Ts:   begin.Sub(t.start).Microseconds(),
			Dur:  end.Sub(begin).Microseconds(),
			Pid:  1,
			Tid:  traceRow(corr.Cell),
			Args: args,
		}
		t.mu.Lock()
		t.events = append(t.events, ev)
		t.mu.Unlock()
	}
}

// traceRow maps a cell id onto a stable Chrome-trace thread row; spans
// with no cell share row 0.
func traceRow(cell string) uint32 {
	if cell == "" {
		return 0
	}
	h := fnv.New32a()
	io.WriteString(h, cell)
	return 1 + h.Sum32()%4096
}

// Len reports the number of recorded spans.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// WriteChromeTrace renders the collected spans as Chrome trace-event
// JSON ({"traceEvents": [...]}).
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	t.mu.Lock()
	events := make([]traceEvent, len(t.events))
	copy(events, t.events)
	t.mu.Unlock()
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}{events})
}
