// Command sifi runs a single reliability-assessment campaign on the
// simulated AMD Southern Islands GPU, mirroring the paper's SIFI tool
// (Multi2Sim based): statistical fault injection plus ACE analysis on the
// vector register file or the local data share.
//
//	sifi -bench reduction -structure local -n 2000
//
// With -margin set, -n becomes the cap and the campaign stops as soon as
// the AVF interval is tight enough (adaptive statistical sampling).
package main

import (
	"context"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cli"
	"repro/internal/gpu"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		os.Exit(1)
	}
}

// run is main's testable core; it reports its own errors on stderr.
// Interrupting ctx cancels the campaign promptly.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	return cli.RunContext(ctx, "sifi", gpu.AMD, args, stdout, stderr)
}
