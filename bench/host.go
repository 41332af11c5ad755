package main

import (
	"runtime"
	"sync"
	"time"
)

// The host this benchmark runs on is a few cores of a shared machine, and
// what the other tenants do changes how fast it executes the same
// instructions: identical deterministic work took between 1.0 and 1.7
// times its calm time here, in phases of seconds to minutes, CPU time
// inflated with wall time (README, "Noise"). No run is long enough to
// average that out, so every timed end-to-end metric is stated in seconds
// of the calm reference host: beside every measured stretch of work the
// benchmark runs a fixed reference kernel, on as many cores as the work
// keeps busy, and the stretch's time is divided by how much slower than
// calm the kernel ran around it.
//
// The kernel lives here, not in the program under test, so no change to
// the program moves it. Its mix was chosen by measurement: 25 minutes of
// injection campaigns interleaved with eight candidate kernels showed the
// simulators' slowdown tracked best by 70 % independent integer
// arithmetic (the sibling hyper-thread's tenant contends for issue
// ports) and 30 % dependent loads over 16 MiB (the last-level cache and
// memory are shared too); a latency-bound dependent chain hardly slows
// here and tracks nothing.

const (
	// refALUIters and refChaseSteps size one kernel execution to
	// refCalmSeconds on the calm reference host (2-core Xeon 2.1 GHz,
	// both lanes running), 70 % of it in the arithmetic part.
	refALUIters   = 56_000_000
	refChaseSteps = 400_000
	// refCalmSeconds is what one kernel execution takes on the calm
	// reference host: the fastest of a few hundred samples took 0.093 to
	// 0.100 s. Its exact value only fixes the unit: a normalised second
	// is about a second of this host in a quiet hour.
	refCalmSeconds = 0.100
	refChaseWords  = 16 << 20 / 4
)

// refSink keeps the kernel's result alive, so that no compiler removes
// the computation.
var refSink uint64

// refKernel is the reference computation: scale 1 is the full size.
func refKernel(chase []uint32, start uint32, scale float64) uint64 {
	return refALU(int(refALUIters*scale)) + uint64(refChase(chase, start, int(refChaseSteps*scale)))
}

// refALU is eight chains of integer operations that do not wait for one
// another: it keeps every issue port busy and slows down most when the
// core's other hyper-thread is busy too.
func refALU(n int) uint64 {
	var a, b, c, d, e, f, g, h uint64 = 1, 2, 3, 4, 5, 6, 7, 8
	for i := 0; i < n; i++ {
		a += uint64(i) ^ b
		b = b<<1 | b>>63
		c ^= a + 3
		d += c >> 3
		e = e*3 + 1
		f ^= e
		g += f & 0xff
		h = h + g ^ d
	}
	return a + b + c + d + e + f + g + h
}

// refChase is loads that each wait for the one before, all over 16 MiB.
func refChase(chase []uint32, p uint32, n int) uint32 {
	for i := 0; i < n; i++ {
		p = chase[p]
	}
	return p
}

// unit is one measured stretch of work: a repetition, a fleet round, a
// set-up performance. The norm fields are the raw ones in seconds of the
// calm reference host.
type unit struct {
	wall, cpu         float64 // seconds as measured
	normWall, normCPU float64
	cells             int // cells settled: run, or served from a store
}

// slowdown is how much slower than the calm reference host the unit's
// stretches ran, weighted by their length.
func (u unit) slowdown() float64 { return u.wall / u.normWall }

// hostMeter measures units of work between samples of the reference
// kernel. It is used from one goroutine.
type hostMeter struct {
	chase []uint32
	lanes int // how many cores a sample runs on: as many as the last stretch used
	scale float64
	// cpu reads the CPU seconds used so far by everything a unit's work
	// runs in: this process, or this process and the fleet's.
	cpu func() float64
	// coarse keeps samples out of a unit (split does nothing): a traced
	// unit's spans must cover it.
	coarse bool

	samples []float64 // seconds each sample took

	// The stretch being measured, and the unit it belongs to.
	before float64
	t0     time.Time
	c0     float64
	cur    unit
}

// newHostMeter builds the kernel's array (one cycle through all words in
// random order, so that every load misses the caches that are smaller
// than it) and runs the kernel twice unmeasured.
func newHostMeter(scale float64, cpu func() float64) *hostMeter {
	h := &hostMeter{chase: make([]uint32, refChaseWords), lanes: runtime.GOMAXPROCS(0), scale: scale, cpu: cpu}
	// Sattolo's shuffle of the identity gives a single cycle.
	for i := range h.chase {
		h.chase[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(h.chase) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		h.chase[i], h.chase[j] = h.chase[j], h.chase[i]
	}
	h.sample()
	h.sample()
	h.samples = h.samples[:0]
	return h
}

// sample runs the kernel once on every lane at the same time and records
// the mean of the lanes' times.
func (h *hostMeter) sample() float64 {
	var wg sync.WaitGroup
	took := make([]float64, h.lanes)
	out := make([]uint64, h.lanes)
	for l := range took {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			out[l] = refKernel(h.chase, uint32(l*len(h.chase)/h.lanes), h.scale)
			took[l] = time.Since(t0).Seconds()
		}()
	}
	wg.Wait()
	for _, v := range out {
		refSink += v
	}
	s := sum(took) / float64(len(took))
	h.samples = append(h.samples, s)
	return s
}

// begin starts a unit. The sample that ended the unit before stands for
// the start of this one when next follows on it directly.
func (h *hostMeter) begin(next bool) {
	if !next || len(h.samples) == 0 {
		h.sample()
	}
	h.before = h.samples[len(h.samples)-1]
	h.cur = unit{}
	h.t0, h.c0 = time.Now(), h.cpu()
}

// split ends one stretch of the current unit and starts the next, with a
// sample between them that belongs to neither: a unit that takes seconds
// is normalised stretch by stretch.
func (h *hostMeter) split() {
	if h.coarse {
		return
	}
	h.closeStretch()
	h.t0, h.c0 = time.Now(), h.cpu()
}

// end closes the unit and returns it.
func (h *hostMeter) end(cells int) unit {
	h.closeStretch()
	h.cur.cells = cells
	return h.cur
}

func (h *hostMeter) closeStretch() {
	wall, cpu := time.Since(h.t0).Seconds(), h.cpu()-h.c0
	// The kernel runs on as many cores as the work beside it kept busy:
	// one core's neighbours say little about work that ran on the other.
	if wall > 0 {
		h.lanes = min(max(int(cpu/wall+0.5), 1), runtime.GOMAXPROCS(0))
	}
	after := h.sample()
	slow := (h.before + after) / 2 / (refCalmSeconds * h.scale)
	h.cur.wall += wall
	h.cur.cpu += cpu
	h.cur.normWall += wall / slow
	h.cur.normCPU += cpu / slow
	h.before = after
}
