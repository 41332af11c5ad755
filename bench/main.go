// Command bench is the repository's benchmark: four named workloads
// over the injection path and the fleet, the end-to-end metrics a user
// of the system sees, and a traced run that breaks each workload down
// layer by layer. It measures the program from outside, by timing calls
// into the layers' exported functions and reading deltas of the counters
// the program exports; see README.md in this directory.
//
//	go run ./bench                                  all four workloads
//	go run ./bench -workload inject_deep -seed 7    one of them
//	go run ./bench -trace 1 -json out.json          with per-layer metrics
//	go run ./bench -compare a.json b.json           two -json reports
//	go run ./bench -compare a1.json,a2.json b1.json,b2.json   two sets of runs
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark writes: scratch directories,
// the fleet binaries, trace files. It is relative to the directory the
// benchmark is started from and is in .gitignore.
const buildDir = ".bench_build"

// Env states what the numbers of a report were measured on.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"git_commit"`
}

// Report is what -json writes and -compare reads.
type Report struct {
	Env       Env               `json:"env"`
	Workloads []*WorkloadReport `json:"workloads"`
}

func currentEnv() Env {
	e := Env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH, Commit: "unknown",
	}
	// Outside a git checkout (the driver's) go stamps no revision.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	if e.Commit == "unknown" {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil && len(out) >= 40 {
			e.Commit = string(out[:40])
		}
	}
	return e
}

// cleanups run on every exit path — normal return, failed check, signal,
// panic — so no child process or scratch directory outlives the run.
var cleanups struct {
	sync.Mutex
	fns []func()
}

func onExit(fn func()) {
	cleanups.Lock()
	cleanups.fns = append(cleanups.fns, fn)
	cleanups.Unlock()
}

func runCleanups() {
	cleanups.Lock()
	fns := cleanups.fns
	cleanups.fns = nil
	cleanups.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		runCleanups()
		os.Exit(130)
	}()
	code := 0
	func() {
		defer func() {
			if p := recover(); p != nil {
				fmt.Fprintf(os.Stderr, "bench: panic: %v\n%s", p, debug.Stack())
				code = 2
			}
			runCleanups()
		}()
		if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
			if !errors.Is(err, flag.ErrHelp) {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			}
			code = 1
		}
	}()
	os.Exit(code)
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload: figures_cold, figures_warm, inject_deep or fleet_load (default: all four, one process each)")
		seed     = fs.Uint64("seed", 1, "workload seed: fault samples and fleet specs derive from it")
		seconds  = fs.Float64("seconds", 18, "how long the measured repetitions of a workload go on (at least three are measured)")
		trace    = fs.String("trace", "0", "1: also run traced, print the per-layer metrics and write a Chrome trace under "+buildDir+"; a path: the same, writing the trace there")
		jsonOut  = fs.String("json", "", "write the full report (every metric with quartiles, exact counts, sizes, host) to this file")
		compare  = fs.Bool("compare", false, "compare two -json reports given as arguments, or two comma-separated sets of them (runs of one commit each), and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare wants two reports, or two comma-separated sets of reports")
		}
		return compareReports(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	var mode childMode
	if v := os.Getenv(childEnv); v != "" {
		if err := json.Unmarshal([]byte(v), &mode); err != nil {
			return fmt.Errorf("%s=%q: %w", childEnv, v, err)
		}
	}
	sz := fullSizes
	if mode.Toy {
		sz = toySizes
	}
	traceOn := *trace != "0" && *trace != ""

	report := &Report{Env: currentEnv()}
	if *workload == "" {
		// Every workload gets a process of its own, so that one's heap
		// is not the next one's peak memory.
		for _, w := range workloadNames {
			cfg := runCfg{workload: w, seed: *seed, trace: traceOn, sz: sz}
			extra := []string{"-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64)}
			if traceOn && *trace != "1" {
				// One trace file per workload: t.json becomes
				// t-figures_cold.json and so on.
				ext := filepath.Ext(*trace)
				extra = append(extra, "-trace", strings.TrimSuffix(*trace, ext)+"-"+w+ext)
			}
			rep, err := runSelf(cfg, w, mode, extra...)
			if err != nil {
				return err
			}
			printWorkload(stdout, report.Env, rep)
			report.Workloads = append(report.Workloads, rep)
		}
		if !crossCheck(report) {
			fmt.Fprintln(stdout, "\nFAILED: figure JSON differs between figures_cold and figures_warm")
		}
	} else {
		dir, err := scratchDir()
		if err != nil {
			return err
		}
		cfg := runCfg{
			workload: *workload, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
			trace: traceOn, sz: sz, toy: mode.Toy, dir: dir, warmStore: mode.WarmStore,
		}
		if traceOn {
			cfg.traceOut = *trace
			if *trace == "1" {
				cfg.traceOut = filepath.Join(buildDir, "trace-"+*workload+".json")
			}
		}
		rep, err := runWorkload(cfg)
		if err != nil {
			return err
		}
		printWorkload(stdout, report.Env, rep)
		report.Workloads = append(report.Workloads, rep)
	}
	if *jsonOut != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	failed := 0
	for _, w := range report.Workloads {
		failed += w.Failed
	}
	if *workload != "" {
		// The driver reads the last line of standard output.
		fmt.Fprintln(stdout, driverLine(report.Workloads[0]))
	}
	if failed > 0 {
		return fmt.Errorf("%d checks failed", failed)
	}
	return nil
}

// scratchDir makes a fresh directory under buildDir and removes it on
// exit.
func scratchDir() (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return "", err
	}
	onExit(func() { os.RemoveAll(dir) })
	return dir, nil
}

// childEnv marks a child process of the benchmark and carries its
// childMode as JSON. The test binary re-executes itself as the benchmark
// when it is set.
const childEnv = "BENCH_CHILD"

// childMode is what a benchmark process tells a child of its own that the
// command line has no flag for, because no user should set it: each
// changes what is measured.
type childMode struct {
	// Toy selects toySizes (the smoke test's children).
	Toy bool `json:"toy,omitempty"`
	// WarmStore makes figures_cold fill figures_warm's store: Setups cold
	// passes and nothing else, the last pass's store left at this path.
	WarmStore string `json:"warm_store,omitempty"`
}

// runSelf runs one workload in a child process of this same binary and
// reads its full report back.
func runSelf(cfg runCfg, workload string, mode childMode, extra ...string) (*WorkloadReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir := cfg.dir
	if dir == "" {
		if dir, err = scratchDir(); err != nil {
			return nil, err
		}
	}
	out := filepath.Join(dir, "child-"+workload+".json")
	args := []string{"-workload", workload, "-seed", strconv.FormatUint(cfg.seed, 10), "-json", out}
	env, err := json.Marshal(mode)
	if err != nil {
		return nil, err
	}
	if cfg.trace && cfg.workload == workload {
		args = append(args, "-trace", "1") // a later -trace in extra overrides it
	}
	cmd := exec.Command(self, append(args, extra...)...)
	cmd.Env = append(os.Environ(), childEnv+"="+string(env))
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	onExit(func() { cmd.Process.Kill() })
	runErr := cmd.Wait()
	buf, err := os.ReadFile(out)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s in a child process: %w", workload, runErr)
		}
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, err
	}
	if len(rep.Workloads) != 1 {
		return nil, fmt.Errorf("%s: child reported %d workloads", workload, len(rep.Workloads))
	}
	// A child that failed checks exits non-zero but still reports; the
	// failures are in the report and count here.
	return rep.Workloads[0], nil
}

// crossCheck compares what two workloads of one full run must agree on:
// warm figures are byte-identical to cold ones.
func crossCheck(r *Report) bool {
	by := map[string]*WorkloadReport{}
	for _, w := range r.Workloads {
		by[w.Workload] = w
	}
	cold, warm := by["figures_cold"], by["figures_warm"]
	if cold == nil || warm == nil {
		return true
	}
	return warm.check(cold.Outputs["figures_sha256"] == warm.Outputs["figures_sha256"],
		"figure JSON differs between figures_cold and figures_warm")
}

// printWorkload prints every metric of one run by name with its unit.
func printWorkload(w io.Writer, env Env, r *WorkloadReport) {
	fmt.Fprintf(w, "\n== %s  seed=%d  reps=%d  set-ups=%d  window=%gs  nproc=%d GOMAXPROCS=%d %s %s commit=%.12s\n",
		r.Workload, r.Seed, r.Reps, len(r.SetupWall), r.Seconds, env.NProc, env.GOMAXPROCS, env.GoVersion, env.OSArch, env.Commit)
	sz, _ := json.Marshal(r.Sizes)
	fmt.Fprintf(w, "   sizes %s\n", sz)
	if r.FreshJobs > 0 {
		fmt.Fprintf(w, "   jobs_per_s and submit_to_result_p50_s: %d fresh jobs in %d rounds, one sample per round\n", r.FreshJobs, r.Reps)
	}
	printMetrics(w, "end-to-end (tracing off)", r.EndToEnd)
	if len(r.Layers) > 0 {
		printMetrics(w, "per layer (traced run)", r.Layers)
		fmt.Fprintf(w, "   trace written to %s\n", r.TraceFile)
	}
	for _, k := range sortedKeys(r.Exact) {
		fmt.Fprintf(w, "   exact  %-34s %d\n", k, r.Exact[k])
	}
	for _, k := range sortedKeys(r.Outputs) {
		fmt.Fprintf(w, "   output %-34s %s\n", k, r.Outputs[k])
	}
	fmt.Fprintf(w, "   checks: %d attempted, %d failed\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
}

func printMetrics(w io.Writer, title string, m map[string]Summary) {
	fmt.Fprintf(w, "   %s\n", title)
	for _, k := range sortedKeys(m) {
		s := m[k]
		if s.N > 1 && s.Min != s.Max {
			fmt.Fprintf(w, "     %-36s %14.6g %-7s [q1 %.6g, q3 %.6g, min %.6g, max %.6g, n=%d]\n", k, s.Value, s.Unit, s.Q1, s.Q3, s.Min, s.Max, s.N)
		} else if s.N > 1 {
			fmt.Fprintf(w, "     %-36s %14.6g %-7s [n=%d]\n", k, s.Value, s.Unit, s.N)
		} else {
			fmt.Fprintf(w, "     %-36s %14.6g %s\n", k, s.Value, s.Unit)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
