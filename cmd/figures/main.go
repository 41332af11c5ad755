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
// The canned figures are specs too (experiment.Figure), narrowed by the
// figure flags: "-fig 1 -chips A -n 100" and a -spec file holding the
// same grid, budget and seed are one code path and print the same
// bytes, locally or with -server on a fiserver.
//
// Useful knobs: -n (injections per campaign; the paper uses 2000, and it
// becomes the cap when -margin is set), -margin/-confidence (adaptive
// sampling: stop each campaign once its AVF interval is tight enough),
// -checkpoint (fast-forward injections through golden snapshots: auto
// or off; results are byte-identical either way),
// -workers, -seed, -bench (comma-separated subset), -chips
// (comma-separated subset), -store (persistent result cache; warm reruns
// perform zero injections).
//
// All figures of one local invocation share one experiment.Runner over
// one campaign scheduler, so Fig. 3 reuses every cell Figs. 1 and 2
// already measured. AVF-ACE rides on those cells' FI results; a cell
// without one takes it from a golden-only sibling campaign, which the
// scheduler stores and shares like any cell, so a later pass runs none.
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
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/client"
	"repro/internal/experiment"
	"repro/internal/report"
)

// errUsage marks argument errors the FlagSet has already reported on
// stderr; main exits non-zero without printing them again.
var errUsage = errors.New("usage error")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
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
		serverURL = fs.String("server", "", "run on this fiserver (POST /v1/experiments) instead of locally")
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
	if *serverURL != "" && (sf.Path != "" || pf.Workers != 0) {
		return errors.New("-store and -workers are local-only: with -server the fiserver owns its store and worker pool")
	}

	// What to run: one spec file, or the canned figure specs narrowed
	// by the figure flags.
	var specs []experiment.Spec
	if *specPath != "" {
		spec, err := pf.LoadSpec(fs, *specPath, *seed)
		if err != nil {
			return err
		}
		specs = append(specs, spec)
	} else {
		for n := 1; n <= 3; n++ {
			if *fig != "all" && *fig != fmt.Sprint(n) {
				continue
			}
			spec, err := experiment.Figure(n)
			if err != nil {
				return err
			}
			if *chipSel != "" {
				spec.Chips = splitList(*chipSel)
			}
			if *benches != "" {
				spec.Benchmarks = splitList(*benches)
			}
			spec.Injections, spec.Seed, spec.Policy = pf.N, *seed, pf.SpecPolicy()
			specs = append(specs, spec)
		}
		if len(specs) == 0 {
			return fmt.Errorf("unknown figure %q (want 1, 2, 3 or all)", *fig)
		}
	}

	// Where to run it: a fiserver, or one local runner and scheduler
	// shared by every spec of the invocation.
	var runner *experiment.Runner
	if *serverURL == "" {
		store, closeStore, err := openStore(sf, log)
		if err != nil {
			return err
		}
		defer closeStore()
		runner = &experiment.Runner{
			Scheduler: campaign.New(campaign.Config{Store: store, CampaignWorkers: pf.Workers}),
			OnCell: func(p experiment.Progress) {
				log.Info("cell done", "done", p.Done, "total", p.Total,
					"cell", p.Spec.String(), "cached", p.Cached)
			},
		}
	}
	for _, spec := range specs {
		if err := runSpec(ctx, spec, *serverURL, runner, *asJSON, stdout, log); err != nil {
			return err
		}
	}
	if runner != nil {
		st := runner.Scheduler.Stats()
		log.Info("campaigns done",
			"runs", st.Runs, "injections", st.Injections,
			"cached", st.Hits+st.Joins, "upgraded", st.Upgrades, "goldens", st.GoldenRuns)
	}
	return nil
}

// splitList splits a comma-separated flag value; the names are resolved
// (and unknown ones rejected) when the spec compiles.
func splitList(v string) []string {
	names := strings.Split(v, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	return names
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

// runSpec executes one declarative experiment spec — on the local
// runner, or on a fiserver via the shared client when serverURL is
// set — and renders the result as tables or JSON.
func runSpec(ctx context.Context, spec experiment.Spec, serverURL string, runner *experiment.Runner, asJSON bool, stdout io.Writer, log *slog.Logger) error {
	start := time.Now()
	var (
		res *experiment.Result
		err error
	)
	if serverURL != "" {
		cl := &client.Client{Base: serverURL}
		res, err = cl.RunExperiment(ctx, spec, func(ev client.Event) {
			switch ev.Event {
			case "job":
				log.Info("experiment accepted", "name", ev.Name, "job", ev.ID, "cells", ev.Total)
			case "cell":
				log.Info("cell done", "done", ev.Done, "total", ev.Total,
					"chip", ev.Chip, "benchmark", ev.Benchmark, "structure", ev.Structure, "cached", ev.Cached)
			}
		})
	} else {
		res, err = runner.Run(ctx, spec)
	}
	if err != nil {
		return err
	}
	phase := spec.Name
	if phase == "" {
		phase = "spec"
	}
	// The wall-clock note follows the tables in human mode and goes to
	// the structured log under -json, so the machine output stays a
	// comparable JSON document (the store-format CI smoke diffs it byte
	// for byte).
	if asJSON {
		if err := report.WriteExperimentJSON(stdout, res); err != nil {
			return err
		}
		log.Info("phase done", "phase", phase, "wall", time.Since(start).Round(time.Millisecond).String())
		return nil
	}
	if err := report.WriteExperiment(stdout, res); err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "\n(%s wall time: %v)\n\n", phase, time.Since(start).Round(time.Millisecond))
	return err
}
