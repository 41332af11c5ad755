package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/client"
	"repro/internal/experiment"
	"repro/internal/report"
	"repro/internal/worker"
)

// runFleet is fleet_load: a real fiserver process with remote workers, a
// binary result store, a job journal and two equal-weight tenants; one
// real fiworker process; and a closed loop of two clients, one per
// tenant, each submitting its next eight-cell experiment only after the
// previous one answered. Callers of the fleet wait for their reply,
// hence a closed loop; two clients because the box has two cores. The
// loop goes in rounds of FleetUnitJobs jobs per client (see loop).
func runFleet(cfg runCfg) (*WorkloadReport, error) {
	rep := newReport(cfg)

	// Set-up: build both binaries, boot the server, wait for /healthz,
	// start the worker, and one unmeasured round: the worker's golden runs
	// of the eight (chip, benchmark) pairs, connection pools, the server's
	// first journal append. Performed Setups times; the last fleet stays up.
	gen := &fleetLoad{cfg: cfg, rep: rep, first: map[string]string{}}
	defer func() { gen.fl.stop() }()
	// A unit's CPU time is what server, worker and generator used.
	cfg.host.cpu = func() float64 { return gen.fl.cpu() + selfCPU() }
	i := 0
	setups, err := timeSetups(cfg.host, cfg.sz, func() { gen.fl.stop() }, func() (err error) {
		i++
		if gen.fl, err = startFleet(filepath.Join(cfg.dir, fmt.Sprintf("fleet-%d", i))); err != nil {
			return err
		}
		return gen.round(nil, 0, time.Now())
	})
	if err != nil {
		return nil, err
	}
	fl := gen.fl
	gen.jobs = nil

	serverBefore, err := scrapeURL(fl.base)
	if err != nil {
		return nil, err
	}
	units, err := gen.loop(nil, cfg.sz.MinReps, cfg.window)
	if err != nil {
		return nil, err
	}
	measured := gen.jobs
	peak := fl.peakRSSMiB() + selfPeakRSSMiB()

	serverAfter, err := scrapeURL(fl.base)
	if err != nil {
		return nil, err
	}
	srv := serverAfter.delta(serverBefore)
	rep.check(srv["fi_lease_failed_total"] == 0, "fi_lease_failed_total = %g", srv["fi_lease_failed_total"])
	rep.check(srv["fi_lease_expiries_total"] == 0, "fi_lease_expiries_total = %g", srv["fi_lease_expiries_total"])
	gen.checkJobsDone()

	if cfg.trace {
		// The traced run swaps the fiworker process for the benchmark's
		// own loop over worker.Client and campaign.LocalExecutor: lease,
		// execute and complete become visible without a change to the
		// program.
		fl.worker.stop()
		tr := newTracer()
		cfg.host.coarse = true
		stopWorker := startWorkerLoop(fl.base, tr)
		gen.jobs = nil
		tracedBefore, err := scrapeURL(fl.base)
		if err != nil {
			stopWorker()
			return nil, err
		}
		// As long as the untraced loop, so that the tail percentile has
		// its samples.
		traced, err := gen.loop(tr, cfg.sz.MinReps, cfg.window)
		busy := stopWorker()
		if err != nil {
			return nil, err
		}
		tracedAfter, err := scrapeURL(fl.base)
		if err != nil {
			return nil, err
		}
		specs := []experiment.Spec{fleetSpec(cfg.sz, cfg.seed, 0, 0), fleetSpec(cfg.sz, cfg.seed, 0, 1)}
		if err := gen.probeService(tr); err != nil {
			return nil, err
		}
		linkFleetSpans(tr)
		if err := addLayers(rep, cfg, tr, "client.job", units, traced, specs); err != nil {
			return nil, err
		}
		// The rounds' own time: the reference samples between them are
		// not time the fleet had work.
		loopSecs := 0.0
		for _, u := range traced {
			loopSecs += u.wall
		}
		gen.fleetLayers(tracedAfter.delta(tracedBefore), loopSecs, busy)
	}

	if rep.Failed > 0 {
		fl.keepLogs()
	}
	rep.finish(units, setups, peak)
	// Every round gives one sample of throughput and of median latency, so
	// both carry the spread between the rounds of this run.
	fresh := make([][]float64, len(units))
	for _, j := range measured {
		if j.fresh {
			fresh[j.round] = append(fresh[j.round], j.latency())
			rep.FreshJobs++
		}
	}
	var rate, p50 []float64
	for r, u := range units {
		rate = append(rate, float64(len(fresh[r]))/u.normWall)
		p50 = append(p50, median(fresh[r])/u.slowdown())
	}
	rep.EndToEnd["jobs_per_s"] = summarize("1/s", rate)
	rep.EndToEnd["submit_to_result_p50_s"] = summarize("s", p50)
	return rep, nil
}

// fleetJob is one submitted experiment as its client saw it.
type fleetJob struct {
	client int
	round  int  // of the loop that submitted it
	fresh  bool // false: a repeat of the client's previous spec
	id     string
	submit time.Duration // since the loop began
	result time.Duration // the stream's "result" event
}

func (j fleetJob) latency() float64 { return (j.result - j.submit).Seconds() }

// fleetLoad generates the load and checks the answers.
type fleetLoad struct {
	cfg runCfg
	fl  *fleet
	rep *WorkloadReport

	mu      sync.Mutex
	jobs    []fleetJob
	next    [2]int            // next job number per client
	first   map[string]string // spec name → digest of its first answer
	retries int
}

// loop runs rounds until minRounds are done and the window is over. A
// round is the fleet's measured unit: its wall time, the CPU time server,
// worker and generator used during it, and the cells settled.
func (g *fleetLoad) loop(tr *tracer, minRounds int, window time.Duration) ([]unit, error) {
	start := time.Now()
	round := 0
	return repeat(g.cfg.host, minRounds, window, func() (int, error) {
		err := g.round(tr, round, start)
		round++
		// A job is every fleet benchmark on both structures.
		return 2 * g.cfg.sz.FleetUnitJobs * len(fleetBenchmarks) * 2, err
	})
}

// round is both clients, side by side, submitting FleetUnitJobs jobs
// each, every job after the answer to the one before; it ends when both
// are through.
func (g *fleetLoad) round(tr *tracer, round int, start time.Time) error {
	var (
		wg   sync.WaitGroup
		errs [2]error
	)
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = g.unit(tr, c, round, start)
		}()
	}
	wg.Wait()
	return errors.Join(errs[:]...)
}

// unit is FleetUnitJobs jobs of one client, one after the other. Every
// fifth repeats the spec before it: a warm hit over HTTP, which must
// answer byte for byte what the first submission answered.
func (g *fleetLoad) unit(tr *tracer, c, round int, start time.Time) error {
	cl := &client.Client{Base: g.fl.base, APIKey: g.fl.keys[c]}
	var prev experiment.Spec
	for i := 0; i < g.cfg.sz.FleetUnitJobs; i++ {
		spec, fresh := prev, false
		if i%5 != 4 {
			g.mu.Lock()
			n := g.next[c]
			g.next[c]++
			g.mu.Unlock()
			spec, fresh = fleetSpec(g.cfg.sz, g.cfg.seed, c, n), true
		}
		prev = spec

		// Traced, jobs are timed on the tracer's clock so that their
		// times and the spans' are one time line.
		now := func() time.Duration { return time.Since(start) }
		if tr != nil {
			now = tr.since
		}
		job := fleetJob{client: c, round: round, fresh: fresh, submit: now()}
		root := tr.begin("client.job", "", -1)
		onEvent := func(ev client.Event) {
			if ev.Event == "job" {
				job.id = ev.ID
				tr.add(span{Name: "service.submit_ack", ID: ev.ID, Parent: root, Start: job.submit, End: now()})
			}
		}
		res, err := cl.RunExperiment(context.Background(), spec, onEvent)
		if err != nil {
			// One retry: a fleet client rides out a dropped connection.
			g.mu.Lock()
			g.retries++
			g.mu.Unlock()
			res, err = cl.RunExperiment(context.Background(), spec, onEvent)
		}
		job.result = now()
		tr.end(root)
		tr.setID(root, job.id)
		var digest string
		if err == nil {
			h := sha256.New()
			if err = report.WriteExperimentJSON(h, res); err == nil {
				digest = hex.EncodeToString(h.Sum(nil))
			}
		}
		g.mu.Lock()
		g.rep.check(err == nil, "client %d job %s: %v", c, spec.Name, err)
		if err == nil {
			if want, seen := g.first[spec.Name]; seen {
				g.rep.check(digest == want, "job %s: repeated submission answered differently", spec.Name)
			} else {
				g.first[spec.Name] = digest
				if spec.Name == "fleet-c0-j0" || spec.Name == "fleet-c1-j0" {
					g.rep.Outputs["first_job_sha256 client "+strconv.Itoa(c)] = digest
				}
			}
			g.jobs = append(g.jobs, job)
		}
		g.mu.Unlock()
		if err != nil {
			return fmt.Errorf("client %d job %s: %w", c, spec.Name, err)
		}
	}
	return nil
}

// checkJobsDone asks the server for each tenant's jobs: every one must
// have ended "done".
func (g *fleetLoad) checkJobsDone() {
	for c, key := range g.fl.keys {
		jobs, err := (&client.Client{Base: g.fl.base, APIKey: key}).Jobs(context.Background())
		if !g.rep.check(err == nil, "listing jobs of client %d: %v", c, err) {
			continue
		}
		for _, j := range jobs {
			g.rep.check(j.State == "done", "job %s ended %q", j.ID, j.State)
		}
	}
}

// probeService times the two read endpoints a client polls, on the last
// jobs the traced loop finished (the server forgets the oldest finished
// jobs as new ones come), and the worker's lease round trip on an empty
// queue (a grant's round trip includes however long work took to show).
func (g *fleetLoad) probeService(tr *tracer) error {
	ctx := context.Background()
	g.mu.Lock()
	jobs := append([]fleetJob(nil), g.jobs[max(0, len(g.jobs)-40):]...)
	g.mu.Unlock()
	for _, j := range jobs {
		cl := &client.Client{Base: g.fl.base, APIKey: g.fl.keys[j.client]}
		s := tr.begin("service.status", j.id, -1)
		_, err := cl.Status(ctx, j.id)
		tr.end(s)
		if !g.rep.check(err == nil, "GET status of %s: %v", j.id, err) {
			continue
		}
		s = tr.begin("service.result", j.id, -1)
		_, err = cl.ExperimentResult(ctx, j.id)
		tr.end(s)
		g.rep.check(err == nil, "GET result of %s: %v", j.id, err)
	}
	wc := &worker.Client{Base: g.fl.base, Name: "bench-probe"}
	for i := 0; i < 40; i++ {
		s := tr.begin("worker.lease_rtt", "", -1)
		leases, err := wc.Lease(ctx, 1, 0)
		tr.end(s)
		if err != nil || len(leases) != 0 {
			return fmt.Errorf("lease probe on an idle queue: %d leases, %v", len(leases), err)
		}
	}
	return nil
}

// fleetLayers sets the fleet's count metrics from the traced loop.
func (g *fleetLoad) fleetLayers(srv counters, loopSecs float64, busy time.Duration) {
	set := g.rep.setLayer
	var fresh, warm []float64
	for _, j := range g.jobs {
		if j.fresh {
			fresh = append(fresh, j.latency())
		} else {
			warm = append(warm, j.latency())
		}
	}
	set("service.jobs_per_s", float64(len(fresh))/loopSecs)
	set("service.journal_appends_per_job", srv["fi_store_job_journal_appends_total"]/float64(len(g.jobs)))
	set("service.http_requests", srv["fi_http_requests_total"])
	set("worker.busy_share", busy.Seconds()/(workerConcurrency*loopSecs))
	set("client.submit_to_result_p50_s", median(fresh))
	// The tail is reported only when at least ten samples lie beyond it.
	if tailPercentile(len(fresh)) >= 95 {
		set("client.submit_to_result_p95_s", quantile(sorted(fresh), 0.95))
	}
	if len(warm) > 0 {
		set("client.warm_submit_to_result_p50_s", median(warm))
	}
	set("client.retries", float64(g.retries))
}

// linkFleetSpans hangs the worker's spans under the client's span of the
// same job (the lease carries the job id as Task.Corr) and adds, per
// job, the wait from its acknowledgement to the first lease naming it.
func linkFleetSpans(tr *tracer) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	job := map[string]int{}
	ack := map[string]time.Duration{}
	for i, s := range tr.spans {
		switch s.Name {
		case "client.job":
			job[s.ID] = i
		case "service.submit_ack":
			ack[s.ID] = s.End
		}
	}
	firstLease := map[string]time.Duration{}
	for i, s := range tr.spans {
		if s.Name != "worker.execute" && s.Name != "worker.complete" {
			continue
		}
		if p, ok := job[s.ID]; ok {
			tr.spans[i].Parent = p
		}
		if s.Name == "worker.execute" {
			if t, ok := firstLease[s.ID]; !ok || s.Start < t {
				firstLease[s.ID] = s.Start
			}
		}
	}
	for id, t := range firstLease {
		if a, ok := ack[id]; ok && t > a {
			tr.spans = append(tr.spans, span{Name: "worker.queue_wait", ID: id, Parent: job[id], Start: a, End: t})
		}
	}
}

const workerConcurrency = 2

// startWorkerLoop is the traced stand-in for fiworker -concurrency 2
// -campaign-workers 1. The returned stop function ends the loop and
// reports how long its slots spent executing cells.
func startWorkerLoop(base string, tr *tracer) (stop func() time.Duration) {
	ctx, cancel := context.WithCancel(context.Background())
	wc := &worker.Client{Base: base, Name: "bench-worker"}
	exec := campaign.NewLocalExecutor()
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		busy time.Duration
	)
	for i := 0; i < workerConcurrency; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				leases, err := wc.Lease(ctx, 1, 200*time.Millisecond)
				if err != nil {
					// Shutting down, or a server in trouble, which the
					// clients report; do not spin on it.
					time.Sleep(10 * time.Millisecond)
					continue
				}
				for _, l := range leases {
					spec := l.Task.Spec.Normalize()
					pol := l.Task.Policy
					pol.Workers, pol.MaxInjections = 1, 0
					s := tr.begin("worker.execute", l.Task.Corr, -1)
					t0 := time.Now()
					res, err := exec.Execute(ctx, campaign.Request{Spec: spec, Key: spec.Key(), Policy: pol.Policy(spec.CheckpointPolicy())})
					d := time.Since(t0)
					tr.end(s)
					msg := ""
					if err != nil {
						msg, res = err.Error(), nil
					}
					s = tr.begin("worker.complete", l.Task.Corr, -1)
					wc.Complete(context.Background(), l.ID, res, msg) // a lost completion expires the lease, which the run's checks count
					tr.end(s)
					mu.Lock()
					busy += d
					mu.Unlock()
				}
			}
		}()
	}
	return func() time.Duration {
		cancel()
		wg.Wait()
		return busy
	}
}

// fleet is the running server and worker.
type fleet struct {
	dir    string
	server *proc
	worker *proc
	base   string // http://127.0.0.1:port
	keys   [2]string
}

// startFleet builds fiserver and fiworker (a no-op when they are up to
// date), boots the server on a free loopback port over fresh stores,
// waits for /healthz and starts the worker.
func startFleet(dir string) (*fleet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "bin"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "repro/cmd/fiserver", "repro/cmd/fiworker")
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building fiserver and fiworker: %w\n%s", err, out)
	}

	f := &fleet{dir: dir, keys: [2]string{"bench-key-a", "bench-key-b"}}
	keyFile := filepath.Join(dir, "keys")
	if err := os.WriteFile(keyFile, []byte(f.keys[0]+" tenant-a weight=1\n"+f.keys[1]+" tenant-b weight=1\n"), 0o600); err != nil {
		return nil, err
	}
	f.server, err = startProc(filepath.Join(dir, "fiserver.log"), filepath.Join(bin, "fiserver"),
		"-addr", "127.0.0.1:0", "-workers-remote",
		"-store", filepath.Join(dir, "cells.store"), "-store-format", "binary",
		"-job-store", filepath.Join(dir, "jobs.jsonl"), "-api-keys", keyFile, "-log-level", "warn")
	if err != nil {
		return nil, err
	}
	addr, err := f.server.waitLine("listening on ")
	if err != nil {
		f.stop()
		return nil, err
	}
	f.base = "http://" + addr
	if err := waitHealthy(f.base); err != nil {
		f.stop()
		return nil, err
	}
	f.worker, err = startProc(filepath.Join(dir, "fiworker.log"), filepath.Join(bin, "fiworker"),
		"-server", f.base, "-concurrency", strconv.Itoa(workerConcurrency), "-campaign-workers", "1",
		"-metrics-addr", "127.0.0.1:0", "-quiet")
	if err != nil {
		f.stop()
		return nil, err
	}
	// The worker prints nothing else under -quiet: its metrics listener
	// being up is the sign that it has started.
	if _, err := f.worker.waitLine("metrics on "); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func waitHealthy(base string) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz never answered 200 (last: %v)", base, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop ends both processes and waits for them. Their logs go with the
// scratch directory unless a process or a check failed.
func (f *fleet) stop() {
	if f == nil {
		return
	}
	f.worker.stop()
	f.server.stop()
}

func (f *fleet) keepLogs() {
	f.worker.keepLog()
	f.server.keepLog()
}

// cpu is the user+sys seconds both processes have used so far; there is
// no fleet yet when the first set-up performance begins.
func (f *fleet) cpu() float64 {
	if f == nil {
		return 0
	}
	return f.server.cpu() + f.worker.cpu()
}

// peakRSSMiB is the sum of both processes' resident-set high-water marks.
func (f *fleet) peakRSSMiB() float64 { return f.server.peakRSSMiB() + f.worker.peakRSSMiB() }

// proc is one child process logging to a file.
type proc struct {
	cmd  *exec.Cmd
	log  string
	done chan struct{} // closed when the process has been waited for
	once sync.Once
}

func startProc(log, bin string, args ...string) (*proc, error) {
	lf, err := os.Create(log)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	err = cmd.Start()
	lf.Close() // the child holds its own descriptor
	if err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, log: log, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	onExit(p.stop)
	return p, nil
}

// waitLine polls the log for a line starting with prefix and returns the
// rest of it.
func (p *proc) waitLine(prefix string) (string, error) {
	deadline := time.Now().Add(15 * time.Second)
	for {
		buf, err := os.ReadFile(p.log)
		if err != nil {
			return "", err
		}
		for _, line := range strings.Split(string(buf), "\n") {
			if rest, ok := strings.CutPrefix(line, prefix); ok && bytes.HasSuffix(buf, []byte("\n")) {
				return strings.TrimSpace(rest), nil
			}
		}
		select {
		case <-p.done:
			return "", fmt.Errorf("%s exited before printing %q:\n%s", filepath.Base(p.cmd.Path), prefix, buf)
		default:
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("%s never printed %q:\n%s", filepath.Base(p.cmd.Path), prefix, buf)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop interrupts the process (both binaries drain on SIGINT), kills it
// if it has not exited after five seconds, and waits for it. A process
// that did not exit cleanly gets its log copied beside the scratch
// directory, which is about to be removed.
func (p *proc) stop() {
	if p == nil {
		return
	}
	p.once.Do(func() {
		p.cmd.Process.Signal(os.Interrupt)
		select {
		case <-p.done:
		case <-time.After(5 * time.Second):
			p.cmd.Process.Kill()
			<-p.done
		}
		if !p.cmd.ProcessState.Success() {
			fmt.Fprintf(os.Stderr, "bench: %s ended with %v\n", filepath.Base(p.cmd.Path), p.cmd.ProcessState)
			p.keepLog()
		}
	})
}

// keepLog copies the log out of the scratch directory.
func (p *proc) keepLog() {
	if p == nil {
		return
	}
	keep := filepath.Join(buildDir, "failed-"+filepath.Base(p.log))
	if buf, err := os.ReadFile(p.log); err == nil && os.WriteFile(keep, buf, 0o644) == nil {
		fmt.Fprintf(os.Stderr, "bench: log kept at %s\n", keep)
	}
}

// cpu reads the process's user+sys time from /proc/<pid>/stat (fields 14
// and 15, in clock ticks of 1/100 s on every Linux port Go supports).
func (p *proc) cpu() float64 {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// The command name, field 2, is in parentheses and may hold spaces.
	rest := string(buf[bytes.LastIndexByte(buf, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	return (utime + stime) / 100
}

// peakRSSMiB reads VmHWM from /proc/<pid>/status.
func (p *proc) peakRSSMiB() float64 {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
