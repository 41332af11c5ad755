// Package cli implements the shared command-line driver behind the gufi
// (NVIDIA) and sifi (AMD) campaign tools. Both tools are spec-first:
// -spec runs a declarative experiment file, and the classic single-cell
// flags are compiled into a one-cell spec internally, so either path is
// the same runner and the same result store.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/chips"
	"repro/internal/experiment"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// RunContext is the whole of gufi and sifi: it parses args, runs the
// flag-built cell or the -spec file as one experiment spec, and renders
// the result on stdout. Logs and the error go to stderr — a flag error
// once, as the FlagSet reports it — so the mains only set the exit
// status. Canceling ctx stops the campaign promptly.
func RunContext(ctx context.Context, tool string, vendor gpu.Vendor, args []string, stdout, stderr io.Writer) error {
	err := run(ctx, tool, vendor, args, stdout, stderr)
	if err != nil && !errors.Is(err, errUsage) {
		fmt.Fprintf(stderr, "%s: %v\n", tool, err)
	}
	return err
}

// errUsage marks argument errors the FlagSet has already reported.
var errUsage = errors.New("usage error")

func run(ctx context.Context, tool string, vendor gpu.Vendor, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	fs.SetOutput(stderr)
	defaultChip := "HD Radeon 7970"
	if vendor == gpu.NVIDIA {
		defaultChip = "GeForce GTX 480"
	}
	var (
		chipName  = fs.String("chip", defaultChip, "chip to simulate")
		benchName = fs.String("bench", "vectoradd", "benchmark to run")
		structSel = fs.String("structure", "regfile", "structure: regfile or local")
		seed      = fs.Uint64("seed", 1, "campaign seed")
		specPath  = fs.String("spec", "", "run this experiment spec (JSON) instead of one flag-built cell")
		asJSON    = fs.Bool("json", false, "emit the result as an experiment JSON document instead of text")
		listFlag  = fs.Bool("list", false, "list chips and benchmarks, then exit")
	)
	pf := AddPolicyFlags(fs)
	sf := AddStoreFlags(fs)
	obs := AddObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			// Usage was printed; asking for help is not a failure.
			return nil
		}
		return errUsage
	}
	// Results go to stdout; structured logs and spans are observability and
	// go to stderr / the -trace file, never mixing into parseable output.
	_, closeTrace := obs.Init(stderr, slog.LevelDebug)
	defer func() {
		if terr := closeTrace(); terr != nil && err == nil {
			err = terr
		}
	}()

	if err := pf.Validate(); err != nil {
		return err
	}

	if *listFlag {
		fmt.Fprintf(stdout, "%s chips:\n", vendor)
		for _, c := range chips.Evaluated() {
			if c.Vendor == vendor {
				fmt.Fprintf(stdout, "  %-18s %s, %d units, %.3f GHz, %d regs/unit, %d KB local/unit\n",
					c.Name, c.Arch, c.Units, c.ClockGHz, c.RegsPerUnit, c.LocalBytesPerUnit>>10)
			}
		}
		fmt.Fprintln(stdout, "benchmarks:")
		for _, b := range workloads.All() {
			local := ""
			if b.UsesLocal {
				local = " (uses local memory)"
			}
			fmt.Fprintf(stdout, "  %s%s\n", b.Name, local)
		}
		return nil
	}

	// What to run: the -spec file, or the classic flags compiled into a
	// one-cell spec.
	var spec experiment.Spec
	if *specPath != "" {
		if spec, err = pf.LoadSpec(fs, *specPath, *seed); err != nil {
			return err
		}
		// A spec without a chip axis would normalize to the paper's four
		// chips — both vendors — and could then run on neither tool;
		// default it to this tool's vendor instead.
		if len(spec.Chips) == 0 {
			for _, c := range chips.Evaluated() {
				if c.Vendor == vendor {
					spec.Chips = append(spec.Chips, c.Name)
				}
			}
		}
	} else if spec, err = cellSpec(*chipName, *benchName, *structSel, *seed, pf); err != nil {
		return err
	}
	// Each tool owns one vendor's chips, as in the paper.
	for _, name := range spec.Chips {
		c, err := chips.ByName(name)
		if err != nil {
			return err
		}
		if c.Vendor != vendor {
			return fmt.Errorf("chip %s is a %s part; use the other tool (or cmd/figures, which is vendor-neutral)", c.Name, c.Vendor)
		}
	}

	ds, err := sf.Open()
	if err != nil {
		return err
	}
	var store campaign.Store
	if ds != nil {
		defer ds.Close()
		store = ds
	}
	sched := campaign.New(campaign.Config{Store: store, CampaignWorkers: pf.Workers})
	start := time.Now()
	res, err := (&experiment.Runner{Scheduler: sched}).Run(ctx, spec)
	if err != nil {
		return err
	}
	switch {
	case *asJSON:
		err = report.WriteExperimentJSON(stdout, res)
	case *specPath != "":
		err = report.WriteExperiment(stdout, res)
	default:
		err = writeCell(stdout, tool, pf, res.Tables[0].Cells[0][0], time.Since(start))
	}
	if ds != nil {
		st := sched.Stats()
		fmt.Fprintf(stdout, "  store             %s (hits=%d runs=%d)\n", sf.Path, st.Hits, st.Runs)
	}
	return err
}

// cellSpec compiles the classic single-cell flags into a one-cell spec
// under both estimators.
func cellSpec(chipName, benchName, structSel string, seed uint64, pf *PolicyFlags) (experiment.Spec, error) {
	chip, err := chips.ByName(chipName)
	if err != nil {
		return experiment.Spec{}, err
	}
	bench, err := workloads.ByName(benchName)
	if err != nil {
		return experiment.Spec{}, err
	}
	var st gpu.Structure
	switch strings.ToLower(structSel) {
	case "regfile", "register-file", "rf", "vgpr":
		st = gpu.RegisterFile
	case "local", "local-memory", "shared", "lds":
		st = gpu.LocalMemory
	default:
		return experiment.Spec{}, fmt.Errorf("unknown structure %q (want regfile or local)", structSel)
	}
	if st == gpu.LocalMemory && !bench.UsesLocal {
		return experiment.Spec{}, fmt.Errorf("benchmark %s does not use local memory (the paper's Fig. 2 covers only the 7 shared-memory benchmarks)", bench.Name)
	}
	return experiment.Spec{
		Chips:      []string{chip.Name},
		Benchmarks: []string{bench.Name},
		Structures: []gpu.Structure{st},
		Estimator:  experiment.EstimatorBoth,
		Injections: pf.N,
		Seed:       seed,
		Policy:     pf.SpecPolicy(),
	}, nil
}

// writeCell renders a flag-built cell as the classic campaign report.
func writeCell(w io.Writer, tool string, pf *PolicyFlags, cell *experiment.Cell, elapsed time.Duration) error {
	chip, err := chips.ByName(cell.Chip)
	if err != nil {
		return err
	}
	worstCase, err := stats.MarginOfError(cell.Injections, 0, pf.Confidence)
	if err != nil {
		return err
	}
	secs, err := metrics.ExecSeconds(cell.Cycles, chip.ClockGHz)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s campaign: %s / %s / %s\n", tool, chip.Name, cell.Benchmark, cell.Structure)
	if pf.Margin > 0 {
		fmt.Fprintf(w, "  injections        %d of cap %d (adaptive: half-width %.2f%% <= margin %.2f%% at %.0f%% confidence, or cap)\n",
			cell.Injections, pf.N, 100*(cell.AVFFIHi-cell.AVFFILo)/2, 100*pf.Margin, 100*pf.Confidence)
	} else {
		fmt.Fprintf(w, "  injections        %d (worst-case margin ±%.2f%% at %.0f%% confidence)\n", cell.Injections, 100*worstCase, 100*pf.Confidence)
	}
	fmt.Fprintf(w, "  golden cycles     %d  (%.3e s at %.3f GHz)\n", cell.Cycles, secs, chip.ClockGHz)
	fmt.Fprintf(w, "  occupancy         %.2f%%\n", 100*cell.Occupancy)
	fmt.Fprintf(w, "  AVF (FI)          %.2f%%  [%.2f%%, %.2f%%] @%.0f%%\n", 100*cell.AVFFI, 100*cell.AVFFILo, 100*cell.AVFFIHi, 100*pf.Confidence)
	fmt.Fprintf(w, "  AVF (ACE)         %.2f%%\n", 100*cell.AVFACE)
	fmt.Fprintf(w, "  outcomes          masked=%d sdc=%d due=%d timeout=%d\n",
		cell.Outcomes[gpu.OutcomeMasked], cell.Outcomes[gpu.OutcomeSDC],
		cell.Outcomes[gpu.OutcomeDUE], cell.Outcomes[gpu.OutcomeTimeout])
	_, err = fmt.Fprintf(w, "  wall time         %v\n", elapsed.Round(time.Millisecond))
	return err
}
