// Package report renders an experiment.Result — the one shape every
// figure and every spec run comes back in — as text tables matching the
// content of the paper's three figures, or as one JSON document.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/experiment"
)

// WriteExperiment renders a full experiment result as text: one AVF
// table per structure (the figures' layout), then the EPF table and the
// protection what-if rows when the spec requested them. A column of an
// estimator the spec did not run reads "-", never a number nobody
// measured, and the average rows carry no interval (an interval of a
// mean of proportions is not something the campaigns estimate).
func WriteExperiment(w io.Writer, res *experiment.Result) error {
	name := res.Spec.Name
	if name == "" {
		name = "experiment"
	}
	hasFI := res.Spec.Estimator != experiment.EstimatorACE
	hasACE := res.Spec.Estimator != experiment.EstimatorFI
	pct := func(measured bool, v float64) string {
		if !measured {
			return "-"
		}
		return fmt.Sprintf("%.2f%%", 100*v)
	}
	for _, tbl := range res.Tables {
		title := fmt.Sprintf("%s — %s AVF (%s, %d injections/campaign)",
			name, tbl.Structure, res.Spec.Estimator, res.Spec.Injections)
		if _, err := fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title))); err != nil {
			return err
		}
		const row = "%-11s %-16s %8s %17s %8s %10s\n"
		if _, err := fmt.Fprintf(w, row, "benchmark", "chip", "AVF-FI", "interval", "AVF-ACE", "occupancy"); err != nil {
			return err
		}
		for bi, bn := range res.Benchmarks {
			for ci, cn := range res.Chips {
				c := tbl.Cells[bi][ci]
				interval := "-"
				if hasFI {
					interval = fmt.Sprintf("[%6.2f%%,%6.2f%%]", 100*c.AVFFILo, 100*c.AVFFIHi)
				}
				if _, err := fmt.Fprintf(w, row, bn, cn,
					pct(hasFI, c.AVFFI), interval, pct(hasACE, c.AVFACE), pct(true, c.Occupancy)); err != nil {
					return err
				}
			}
		}
		for ci, cn := range res.Chips {
			c := tbl.Averages[ci]
			if _, err := fmt.Fprintf(w, row, "average", cn,
				pct(hasFI, c.AVFFI), "", pct(hasACE, c.AVFACE), pct(true, c.Occupancy)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	if res.EPF != nil {
		title := name + " — Executions per Failure"
		if _, err := fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title))); err != nil {
			return err
		}
		const hdr = "%-11s %-16s %12s %12s %10s %10s\n"
		if _, err := fmt.Fprintf(w, hdr, "benchmark", "chip", "EPF", "exec (s)", "AVF-RF", "AVF-LM"); err != nil {
			return err
		}
		for bi, bn := range res.Benchmarks {
			for ci, cn := range res.Chips {
				r := res.EPF.Rows[bi][ci]
				if _, err := fmt.Fprintf(w, "%-11s %-16s %12s %12.3e %9.2f%% %9.2f%%\n",
					bn, cn, epfString(r.EPF), r.Seconds, 100*r.RegAVF, 100*r.LocalAVF); err != nil {
					return err
				}
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	if len(res.Protection) > 0 {
		title := name + " — protection what-ifs"
		if _, err := fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title))); err != nil {
			return err
		}
		const hdr = "%-14s %-11s %-16s %12s %10s %10s %9s %12s\n"
		if _, err := fmt.Fprintf(w, hdr, "config", "benchmark", "chip", "EPF", "SDC FIT", "DUE FIT", "slowdown", "extra bits"); err != nil {
			return err
		}
		for _, r := range res.Protection {
			if _, err := fmt.Fprintf(w, "%-14s %-11s %-16s %12s %10.1f %10.1f %8.1f%% %12d\n",
				r.Config, r.Benchmark, r.Chip, epfString(r.EPF), r.SDCFIT, r.DUEFIT, 100*r.Slowdown, r.ExtraBits); err != nil {
				return err
			}
		}
	}
	return nil
}

// epfString renders an EPF value, spelling out the zero-FIT infinity.
func epfString(epf float64) string {
	if epf == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.3e", epf)
}

// WriteExperimentJSON emits the experiment result as one indented JSON
// document — the same shape POST /v1/experiments returns in its final
// stream event.
func WriteExperimentJSON(w io.Writer, res *experiment.Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
