package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program under test carries no spans of its own yet).
type span struct {
	Name   string
	ID     string // shared by every span of one cell or job
	Parent int    // index of the causing span, -1 for a root
	Start  time.Duration
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced and traced runs execute the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index, or -1 on a nil tracer.
func (t *tracer) begin(name, id string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records a span whose ends were measured elsewhere (an interval
// between two events seen on different goroutines).
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) since() time.Duration { return time.Since(t.t0) }

// setID names the cell or job a span belongs to once it is known.
func (t *tracer) setID(i int, id string) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].ID = id
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations lists, in seconds, every span of one name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// covered is how much of [lo, hi] the intervals cover, overlaps counted
// once: children running in parallel do not cover their parent twice.
func covered(lo, hi time.Duration, iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	at := lo
	for _, v := range iv {
		s, e := v[0], v[1]
		if s < at {
			s = at
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// selfTimes derives each span's self time: its duration minus the part
// of that interval its direct children cover.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][][2]time.Duration)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s.Start, s.End, kids[i])
	}
	return self
}

// unattributedShare is the self time of the spans called rootName as a
// share of their duration: wall time inside the measured unit that no
// listed layer span accounts for.
func unattributedShare(spans []span, rootName string) float64 {
	self := selfTimes(spans)
	var own, total time.Duration
	for i, s := range spans {
		if s.Name == rootName {
			own += self[i]
			total += s.dur()
		}
	}
	if total == 0 {
		return 0
	}
	return own.Seconds() / total.Seconds()
}

// writeChromeTrace writes the spans as Chrome trace-event JSON ("X"
// complete events, microseconds), which Perfetto and chrome://tracing
// open directly. Overlapping spans are spread over lanes (tid) so that
// parallel cells do not hide each other.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return spans[order[a]].Start < spans[order[b]].Start })
	// Each span takes the first lane that is free when it starts; the
	// parent index in args keeps the hierarchy.
	var laneEnd []time.Duration
	lane := make([]int, len(spans))
	for _, i := range order {
		s := spans[i]
		l := -1
		for k, end := range laneEnd {
			if end <= s.Start {
				l = k
				break
			}
		}
		if l < 0 {
			laneEnd = append(laneEnd, 0)
			l = len(laneEnd) - 1
		}
		laneEnd[l] = s.End
		lane[i] = l
	}
	events := make([]event, 0, len(spans))
	for _, i := range order {
		s := spans[i]
		args := map[string]any{"parent": s.Parent}
		if s.ID != "" {
			args["id"] = s.ID
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: lane[i], Args: args,
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
		})
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
