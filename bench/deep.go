package main

import (
	"fmt"

	"repro/internal/finject"
)

// runDeep is inject_deep: a few cells at a large injection count through
// finject.Run with the golden run and its checkpoint ladder built in
// set-up, so that restore, simulate to the end and classify is all of
// the measured time.
func runDeep(cfg runCfg) (*WorkloadReport, error) {
	rep := newReport(cfg)

	specs := deepSpecs(cfg.sz, cfg.seed)
	var cells []finject.Campaign
	body := func(tr *tracer) func() (int, error) {
		return func() (int, error) {
			root := tr.begin("bench.rep", cfg.workload, -1)
			defer tr.end(root)
			before := scrapeSelf()
			for i, c := range cells {
				if i > 0 {
					cfg.host.split()
				}
				id := fmt.Sprintf("%s/%s/%s", c.Chip.Name, c.Benchmark.Name, c.Structure)
				s := tr.begin("finject.inject", id, root)
				res, err := finject.Run(c)
				tr.end(s)
				if err != nil {
					return 0, fmt.Errorf("%s: %w", id, err)
				}
				rep.check(res.Injections == c.Injections, "%s: %d injections, want %d", id, res.Injections, c.Injections)
				// The outcome vector (masked, SDC, DUE, timeout counts)
				// is the cell's answer; it must not depend on the
				// repetition.
				rep.output("outcomes "+id, fmt.Sprint(res.Outcomes))
			}
			d := scrapeSelf().delta(before)
			rep.exact("finject.injections", int64(d["fi_inject_injections_total"]))
			rep.exact("finject.sim_cycles", int64(d["fi_inject_sim_cycles_total"]))
			return len(cells), nil
		}
	}
	setups, err := timeSetups(cfg.host, cfg.sz, func() { cells = nil }, func() error {
		planned, err := distinctCells(specs)
		if err != nil {
			return err
		}
		for _, pc := range planned {
			c := pc.Campaign
			if c.Golden, err = finject.NewGolden(c.Chip, c.Benchmark); err != nil {
				return err
			}
			cells = append(cells, c)
		}
		_, err = body(nil)()
		return err
	})
	if err != nil {
		return nil, err
	}
	units, err := repeat(cfg.host, cfg.sz.MinReps, cfg.window, body(nil))
	if err != nil {
		return nil, err
	}
	peak := selfPeakRSSMiB() // before the traced run's probes add theirs
	if cfg.trace {
		tr := newTracer()
		cfg.host.coarse = true
		traced, err := repeat(cfg.host, cfg.sz.MinReps, 0, body(tr))
		if err != nil {
			return nil, err
		}
		if err := addLayers(rep, cfg, tr, "bench.rep", units, traced, specs); err != nil {
			return nil, err
		}
	}
	rep.finish(units, setups, peak)
	return rep, nil
}
