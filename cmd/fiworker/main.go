// Command fiworker is a pull-based remote worker for a fiserver running
// with -workers-remote: it leases campaign cells from the server's queue,
// executes them with the local deterministic injection engine, and
// streams the results back. Any number of workers may point at one
// server; cells are deduplicated and sharded server-side, leases expire
// and re-queue if a worker dies, and determinism guarantees every worker
// computes byte-identical results for the same cell.
//
//	fiserver -addr :8080 -workers-remote
//	fiworker -server http://localhost:8080
//	fiworker -server http://localhost:8080 -concurrency 4
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"time"

	"repro/internal/cli"
	"repro/internal/telemetry"
	"repro/internal/worker"
)

// errUsage marks argument errors the FlagSet has already reported on
// stderr; main exits non-zero without printing them again.
var errUsage = errors.New("usage error")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errUsage) {
			fmt.Fprintf(os.Stderr, "fiworker: %v\n", err)
		}
		os.Exit(1)
	}
}

// run is main's testable core: it drains leases from the server until
// ctx is canceled.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fiworker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		server    = fs.String("server", "http://127.0.0.1:8080", "fiserver base URL, or a comma-separated list for a clustered control plane (sticky failover)")
		name      = fs.String("name", "", "worker name (default host-pid)")
		conc      = fs.Int("concurrency", 1, "cells executed in parallel")
		campWorks = fs.Int("campaign-workers", 0, "parallel simulations per cell (default GOMAXPROCS/concurrency)")
		poll      = fs.Duration("poll", 2*time.Second, "lease long-poll duration")
		quiet     = fs.Bool("quiet", false, "suppress per-cell log lines")
		metrics   = fs.String("metrics-addr", "", "serve GET /metrics (Prometheus text) on this sidecar address, e.g. :9091")
		pprof     = fs.Bool("pprof", false, "with -metrics-addr: also serve net/http/pprof under /debug/pprof/")
	)
	obs := cli.AddObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		// The FlagSet already reported the problem on stderr.
		return errUsage
	}
	if *conc < 1 {
		fmt.Fprintln(stderr, "fiworker: -concurrency must be at least 1")
		return errUsage
	}
	if *name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "fiworker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	// -quiet floors the logger at warn so the per-lease info lines go
	// away but failures still surface.
	floor := slog.LevelDebug
	if *quiet {
		floor = slog.LevelWarn
	}
	log, closeTrace := obs.Init(stderr, floor)
	defer func() {
		if terr := closeTrace(); terr != nil {
			fmt.Fprintf(stderr, "fiworker: %v\n", terr)
		}
	}()
	log = log.With("worker", *name)

	if *metrics != "" {
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			return err
		}
		msrv := cli.HTTPServer(telemetry.MetricsMux(*pprof))
		defer msrv.Close()
		go msrv.Serve(ln)
		fmt.Fprintf(stdout, "metrics on %s\n", ln.Addr())
	}

	w := worker.New(&worker.Client{Base: *server, Name: *name}, worker.Options{
		Concurrency:     *conc,
		CampaignWorkers: *campWorks,
		Poll:            *poll,
		Logger:          log,
	})
	fmt.Fprintf(stdout, "worker %s serving %s (concurrency %d)\n", *name, *server, *conc)
	err := w.Run(ctx)
	fmt.Fprintf(stdout, "worker %s done: %d cells completed, %d failed\n", *name, w.Completed(), w.Failed())
	return err
}
