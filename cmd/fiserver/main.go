// Command fiserver serves the campaign orchestration subsystem over
// HTTP: clients submit batches of fault-injection cells, poll status,
// fetch results, and run declarative experiment specs — the paper's
// figures are three canned ones — with streamed progress. All requests
// share one scheduler and one store, so identical cells are computed
// once ever — across requests, clients and (with -store) process
// restarts. Jobs and specs may carry an execution policy (adaptive
// margin, confidence, injection cap).
//
// With -workers-remote the server stops simulating in-process and
// instead shards cells across a fleet of fiworker processes under
// expiring leases (see cmd/fiworker); determinism makes the results
// byte-identical either way.
//
// With -job-store the job table itself is write-ahead journaled: jobs,
// their per-cell progress and results survive a crash or restart, and
// unfinished jobs resume on boot with already-completed cells served
// from the warm result store (zero re-injections).
//
// With -api-keys the server is multi-tenant: every client request must
// carry "Authorization: Bearer <key>", jobs are labeled and isolated by
// tenant, and per-tenant quotas (max-jobs, inj-rate) answer 429 when
// exceeded. With -cluster-dir several fiservers share one store and one
// job journal; an ownership journal in that directory elects a single
// active owner, standbys answer 503, and a standby seizes ownership
// (and resumes the dead owner's jobs) when heartbeats go stale.
//
// SIGINT or SIGTERM drains the server: it stops accepting, finishes or
// cancels in-flight requests and jobs within -drain-timeout, and a
// clustered owner appends a release record so a standby takes over at
// once.
//
//	fiserver -addr :8080 -store cells.jsonl
//	fiserver -addr :8080 -store cells.jsonl -job-store jobs.jsonl
//	fiserver -addr :8080 -workers-remote -lease-ttl 30s
//	fiserver -addr :8080 -api-keys keys.conf -cluster-dir /shared/fi
//
//	figures -fig 1 -n 100 -margin 0.03 -server http://localhost:8080
//	curl -sN -X POST localhost:8080/v1/experiments -d @internal/experiment/testdata/fig1.json | tail -1
//	curl -s -X POST localhost:8080/v1/jobs -d '{"cells":[{"chip":"GeForce GTX 480","benchmark":"vectoradd","structure":"register-file","injections":200,"seed":1}],"policy":{"margin":0.05}}'
//	curl -s localhost:8080/v1/jobs/job-000001
//	curl -s localhost:8080/v1/jobs/job-000001/result
//	curl -s localhost:8080/metrics | grep -E '^fi_(sched|lease)_'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/service"
)

// errUsage marks argument errors the FlagSet has already reported on
// stderr; main exits non-zero without printing them again.
var errUsage = errors.New("usage error")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errUsage) {
			fmt.Fprintf(os.Stderr, "fiserver: %v\n", err)
		}
		os.Exit(1)
	}
}

// run is main's testable core: it binds the listener, reports the bound
// address on stdout ("listening on ..."), and serves until ctx is
// canceled, then shuts down gracefully.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fiserver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		jobStore  = fs.String("job-store", "", "write-ahead job journal path; jobs survive restart and unfinished ones resume on boot")
		memCap    = fs.Int("mem-cap", 0, "in-memory store capacity in cells (0 = unbounded; ignored with -store)")
		workers   = fs.Int("workers", 0, "concurrently executing cells (default GOMAXPROCS; with -workers-remote, the fleet-wide in-flight bound, default 256)")
		campWorks = fs.Int("campaign-workers", 0, "parallel simulations inside one campaign (default GOMAXPROCS)")
		remote    = fs.Bool("workers-remote", false, "execute cells on remote fiworker processes instead of in-process")
		leaseTTL  = fs.Duration("lease-ttl", campaign.DefaultLeaseTTL, "remote lease expiry after the last heartbeat")
		drain     = fs.Duration("drain-timeout", 5*time.Second, "graceful-shutdown deadline for in-flight requests and jobs")
		pprof     = fs.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
		apiKeys   = fs.String("api-keys", "", "API key file enabling multi-tenant auth: one \"key tenant [weight=N] [max-jobs=N] [inj-rate=N]\" per line")
		cluster   = fs.String("cluster-dir", "", "shared directory holding the ownership journal; servers pointed at it elect one active owner")
		serverID  = fs.String("server-id", "", "this server's identity in the ownership journal (default host-pid)")
		takeover  = fs.Duration("takeover-ttl", service.DefaultTakeoverTTL, "heartbeat staleness after which a standby seizes ownership")
	)
	sf := cli.AddStoreFlags(fs)
	obs := cli.AddObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		// The FlagSet already reported the problem on stderr.
		return errUsage
	}
	log, closeTrace := obs.Init(stderr, slog.LevelDebug)
	defer func() {
		if terr := closeTrace(); terr != nil {
			fmt.Fprintf(stderr, "fiserver: %v\n", terr)
		}
	}()

	var keys *service.KeySet
	if *apiKeys != "" {
		ks, err := service.LoadKeys(*apiKeys)
		if err != nil {
			return err
		}
		keys = ks
		fmt.Fprintf(stdout, "api keys %s: %d tenants\n", *apiKeys, len(ks.Tenants()))
	}

	// Everything that touches the shared store or job journal lives in
	// activate. Standalone boots run it inline; with -cluster-dir it is
	// deferred until this server owns the journal, so a standby never
	// opens (or recovers) state that the active owner is writing.
	var (
		closeMu sync.Mutex
		closers []io.Closer
		appSrv  *service.Server
	)
	defer func() {
		closeMu.Lock()
		defer closeMu.Unlock()
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i].Close()
		}
	}()
	activate := func() (http.Handler, error) {
		var store campaign.Store
		ds, err := sf.Open()
		if err != nil {
			return nil, err
		}
		if ds != nil {
			closeMu.Lock()
			closers = append(closers, ds)
			closeMu.Unlock()
			fmt.Fprintf(stdout, "store %s: %d cells\n", ds.Path(), ds.Len())
			store = ds
		} else {
			store = campaign.NewMemoryStore(*memCap)
		}
		var queue *campaign.LeaseQueue
		var exec campaign.Executor
		nworkers := *workers
		if *remote {
			queue = campaign.NewLeaseQueue(*leaseTTL)
			exec = campaign.NewRemoteExecutor(queue)
			if nworkers == 0 {
				// The in-flight bound is how many cells the fleet can see at
				// once; one machine's core count would starve remote workers.
				nworkers = 256
			}
		}
		sched := campaign.New(campaign.Config{
			Store:           store,
			Workers:         nworkers,
			CampaignWorkers: *campWorks,
			Executor:        exec,
		})

		handler := service.NewServer(sched)
		handler.SetLogger(log)
		if *pprof {
			handler.EnablePprof()
		}
		if keys != nil {
			handler.SetAuth(keys)
		}
		if queue != nil {
			handler.ServeWorkers(queue)
			if keys != nil {
				for _, t := range keys.Tenants() {
					queue.SetWeight(t.Name, t.Weight)
				}
			}
			fmt.Fprintf(stdout, "remote workers enabled (lease TTL %s)\n", *leaseTTL)
		}
		if *jobStore != "" {
			js, err := service.OpenJobStore(*jobStore)
			if err != nil {
				return nil, err
			}
			closeMu.Lock()
			closers = append(closers, js)
			closeMu.Unlock()
			// FISERVER_CRASH arms a test-only crash barrier (see the chaos
			// harness in internal/service/chaostest): the process SIGKILLs
			// itself at the named journal transition. Never set in production.
			if p := os.Getenv("FISERVER_CRASH"); p != "" {
				js.SetFaultPoint(p)
				fmt.Fprintf(stdout, "crash barrier armed: %s\n", p)
			}
			rec, err := handler.UseJobStore(js)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(stdout, "job store %s: %d jobs restored, %d resumed\n", js.Path(), rec.Restored, rec.Resumed)
		}
		closeMu.Lock()
		appSrv = handler
		closeMu.Unlock()
		return handler, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var root http.Handler
	if *cluster != "" {
		if err := os.MkdirAll(*cluster, 0o755); err != nil {
			return fmt.Errorf("-cluster-dir: %w", err)
		}
		id := *serverID
		if id == "" {
			host, _ := os.Hostname()
			id = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		cl := service.NewCluster(*cluster, id, *takeover, activate)
		cl.SetLogger(log)
		// A deposed owner has been fenced out of the job store by a higher
		// epoch; the only safe move is to drain and exit so a supervisor
		// can restart it as a fresh standby.
		cl.OnDeposed(func() {
			fmt.Fprintf(stderr, "fiserver: deposed by a higher epoch, shutting down\n")
			cancel()
		})
		if err := cl.Start(); err != nil {
			return err
		}
		defer cl.Close()
		state, epoch := cl.State()
		fmt.Fprintf(stdout, "cluster %s: server %s %s at epoch %d (takeover TTL %s)\n", *cluster, id, state, epoch, *takeover)
		root = cl
	} else {
		h, err := activate()
		if err != nil {
			return err
		}
		root = h
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := cli.HTTPServer(root)
	srv.BaseContext = func(net.Listener) context.Context { return ctx }
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		// Two-phase drain under one deadline: stop taking requests and
		// finish the in-flight ones, then cancel and reap the
		// asynchronous job goroutines so no simulation outlives the
		// process's accept loop.
		shutdownCtx, stopDrain := context.WithTimeout(context.Background(), *drain)
		defer stopDrain()
		srv.Shutdown(shutdownCtx)
		closeMu.Lock()
		handler := appSrv
		closeMu.Unlock()
		if handler != nil {
			if err := handler.Shutdown(shutdownCtx); err != nil {
				fmt.Fprintf(stderr, "fiserver: drain: %v\n", err)
			}
		}
	}()
	fmt.Fprintf(stdout, "listening on %s\n", ln.Addr())
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-drained
	fmt.Fprintln(stdout, "shut down")
	return nil
}
