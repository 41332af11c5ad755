// Command figures regenerates the paper's evaluation figures end to end:
//
//	figures -fig 1            register-file AVF (FI + ACE + occupancy)
//	figures -fig 2            local-memory AVF (7 shared-memory benchmarks)
//	figures -fig 3            EPF (executions per failure, both structures)
//	figures -fig all          everything
//
// Beyond the canned figures, any declarative experiment spec runs the
// same way:
//
//	figures -spec sweep.json                 run a spec locally
//	figures -spec sweep.json -n 100          ...with a reduced budget
//	figures -spec sweep.json -server http://host:8080
//	                                         ...on a fiserver, streamed
//
// The figure flags (-fig, -chips, -bench, ...) are themselves compiled
// into specs internally — a figure run and the equivalent spec run are
// the same code path and produce byte-identical output.
//
// Useful knobs: -n (injections per campaign; the paper uses 2000, and it
// becomes the cap when -margin is set), -margin/-confidence (adaptive
// sampling: stop each campaign once its AVF interval is tight enough),
// -checkpoint (fast-forward injections through golden snapshots: auto,
// off, or a cycle interval; results are byte-identical either way),
// -workers, -seed, -bench (comma-separated subset), -chips
// (comma-separated subset), -store (persistent result cache; warm reruns
// perform zero injections).
//
// All figures of one invocation share a campaign scheduler, so Fig. 3
// reuses every cell Figs. 1 and 2 already measured.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/chips"
	"repro/internal/cli"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/report"
	"repro/internal/workloads"
)

// errUsage marks argument errors the FlagSet has already reported on
// stderr; main exits non-zero without printing them again.
var errUsage = errors.New("usage error")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errUsage) {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		}
		os.Exit(1)
	}
}

// run is main's testable core: it parses args, runs the requested
// figures and writes tables (or JSON) to stdout and progress notes to
// stderr.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig       = fs.String("fig", "all", "figure to regenerate: 1, 2, 3 or all")
		seed      = fs.Uint64("seed", 1, "campaign seed")
		benches   = fs.String("bench", "", "comma-separated benchmark subset (default: figure-appropriate suite)")
		chipSel   = fs.String("chips", "", "comma-separated chip subset (default: the paper's four)")
		asJSON    = fs.Bool("json", false, "emit figures as JSON instead of tables")
		specPath  = fs.String("spec", "", "run this experiment spec (JSON) instead of a canned figure")
		serverURL = fs.String("server", "", "with -spec: run on this fiserver (POST /v1/experiments) instead of locally")
	)
	pf := cli.AddPolicyFlags(fs)
	sf := cli.AddStoreFlags(fs)
	obs := cli.AddObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		// The FlagSet already reported the problem on stderr.
		return errUsage
	}
	// Tables and JSON go to stdout; progress is structured logging on
	// stderr, so piped output stays parseable.
	log, closeTrace := obs.Init(stderr, slog.LevelDebug)
	defer func() {
		if terr := closeTrace(); terr != nil {
			fmt.Fprintf(stderr, "figures: %v\n", terr)
		}
	}()

	if err := pf.Validate(); err != nil {
		return err
	}
	if err := sf.InstallLadderDir(); err != nil {
		return err
	}

	if *specPath != "" {
		if *serverURL != "" && (sf.Path != "" || pf.Workers != 0) {
			return errors.New("-store and -workers are local-only: with -server the fiserver owns its store and worker pool")
		}
		f, err := os.Open(*specPath)
		if err != nil {
			return err
		}
		spec, err := experiment.Parse(f)
		f.Close()
		if err != nil {
			return err
		}
		// Explicitly set campaign flags override the spec, so CI and
		// quick local runs can shrink a committed spec without editing
		// it; the grid axes always come from the file.
		fs.Visit(func(fl *flag.Flag) {
			if pf.Override(fl.Name, &spec) {
				return
			}
			if fl.Name == "seed" {
				spec.Seed = *seed
			}
		})
		return runSpec(ctx, spec, *serverURL, sf, pf.Workers, *asJSON, stdout, log)
	}
	if *serverURL != "" {
		return errors.New("-server needs -spec (the canned figures run locally)")
	}

	store, closeStore, err := openStore(sf, log)
	if err != nil {
		return err
	}
	defer closeStore()
	sched := campaign.New(campaign.Config{Store: store, CampaignWorkers: pf.Workers})
	opts := core.Options{
		Injections: pf.N, Seed: *seed, Workers: pf.Workers,
		Confidence: pf.Confidence, Margin: pf.Margin, Checkpoint: pf.Checkpoint(), Scheduler: sched,
	}
	if *chipSel != "" {
		for _, name := range strings.Split(*chipSel, ",") {
			c, err := chips.ByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			opts.Chips = append(opts.Chips, c)
		}
	}
	if *benches != "" {
		for _, name := range strings.Split(*benches, ",") {
			b, err := workloads.ByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			opts.Benchmarks = append(opts.Benchmarks, b)
		}
	}

	run1 := *fig == "1" || *fig == "all"
	run2 := *fig == "2" || *fig == "all"
	run3 := *fig == "3" || *fig == "all"
	if !run1 && !run2 && !run3 {
		return fmt.Errorf("unknown figure %q (want 1, 2, 3 or all)", *fig)
	}

	if run1 {
		start := time.Now()
		f, err := core.FigureRegisterFileContext(ctx, opts)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("Fig. 1 — Register File AVF (FI + ACE), %d injections/campaign", opts.Injections)
		if err := writeFigure(stdout, f, title, *asJSON); err != nil {
			return err
		}
		wallTime(stdout, log, *asJSON, "fig 1", start)
	}
	if run2 {
		start := time.Now()
		f, err := core.FigureLocalMemoryContext(ctx, opts)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("Fig. 2 — Local Memory AVF (FI + ACE), %d injections/campaign", opts.Injections)
		if err := writeFigure(stdout, f, title, *asJSON); err != nil {
			return err
		}
		wallTime(stdout, log, *asJSON, "fig 2", start)
	}
	if run3 {
		start := time.Now()
		f, err := core.FigureEPFContext(ctx, opts)
		if err != nil {
			return err
		}
		title := "Fig. 3 — Executions per Failure (EPF)"
		var werr error
		if *asJSON {
			werr = report.WriteEPFJSON(stdout, f, title)
		} else {
			werr = report.WriteEPF(stdout, f, title)
		}
		if werr != nil {
			return werr
		}
		wallTime(stdout, log, *asJSON, "fig 3", start)
	}
	st := sched.Stats()
	log.Info("campaigns done",
		"runs", st.Runs, "injections", st.Injections,
		"cached", st.Hits+st.Joins, "upgraded", st.Upgrades, "goldens", st.GoldenRuns)
	return nil
}

// writeFigure renders an AVF figure as a table or as JSON.
func writeFigure(w io.Writer, f *core.Figure, title string, asJSON bool) error {
	if asJSON {
		return report.WriteFigureJSON(w, f, title)
	}
	return report.WriteFigure(w, f, title)
}

// openStore opens the -store file, if one was given, and logs what it
// holds. The returned store is nil (in-memory scheduling) without one.
func openStore(sf *cli.StoreFlags, log *slog.Logger) (campaign.Store, func(), error) {
	ds, err := sf.Open()
	if err != nil || ds == nil {
		return nil, func() {}, err
	}
	log.Info("store opened", "path", ds.Path(), "cells", ds.Len())
	return ds, func() { ds.Close() }, nil
}

// runSpec executes one declarative experiment spec — locally over a
// scheduler (honoring -store and -workers) or on a fiserver via the
// shared client — and renders the result as tables or JSON.
func runSpec(ctx context.Context, spec experiment.Spec, serverURL string, sf *cli.StoreFlags, workers int, asJSON bool, stdout io.Writer, log *slog.Logger) error {
	start := time.Now()
	var res *experiment.Result
	if serverURL != "" {
		cl := &client.Client{Base: serverURL}
		var err error
		res, err = cl.RunExperiment(ctx, spec, func(ev client.Event) {
			switch ev.Event {
			case "job":
				log.Info("experiment accepted", "name", ev.Name, "job", ev.ID, "cells", ev.Total)
			case "cell":
				log.Info("cell done", "done", ev.Done, "total", ev.Total,
					"chip", ev.Chip, "benchmark", ev.Benchmark, "structure", ev.Structure, "cached", ev.Cached)
			}
		})
		if err != nil {
			return err
		}
	} else {
		store, closeStore, err := openStore(sf, log)
		if err != nil {
			return err
		}
		defer closeStore()
		sched := campaign.New(campaign.Config{Store: store, CampaignWorkers: workers})
		runner := &experiment.Runner{
			Scheduler: sched,
			OnCell: func(p experiment.Progress) {
				log.Info("cell done", "done", p.Done, "total", p.Total,
					"cell", p.Spec.String(), "cached", p.Cached)
			},
		}
		res, err = runner.Run(ctx, spec)
		if err != nil {
			return err
		}
		st := sched.Stats()
		defer log.Info("campaigns done",
			"runs", st.Runs, "injections", st.Injections,
			"cached", st.Hits+st.Joins, "goldens", st.GoldenRuns)
	}
	if asJSON {
		if err := report.WriteExperimentJSON(stdout, res); err != nil {
			return err
		}
	} else {
		if err := report.WriteExperiment(stdout, res); err != nil {
			return err
		}
	}
	wallTime(stdout, log, asJSON, "spec", start)
	return nil
}

// wallTime reports a phase's wall-clock time: appended to the tables in
// human mode, routed to the structured log under -json so the machine
// output stays a comparable JSON document (the store-format CI smoke
// diffs it byte for byte).
func wallTime(stdout io.Writer, log *slog.Logger, asJSON bool, phase string, start time.Time) {
	d := time.Since(start).Round(time.Millisecond)
	if asJSON {
		log.Info("phase done", "phase", phase, "wall", d.String())
		return
	}
	fmt.Fprintf(stdout, "\n(%s wall time: %v)\n\n", phase, d)
}
