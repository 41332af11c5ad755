package main

import (
	"encoding/json"
	"math"
)

// driverEndToEnd are the end-to-end metrics BENCHMARK.json names: the
// ones that are defined and never zero on all four workloads. The other
// four of the issue's nine are printed and compared by this program but
// not gated by the driver: failed_share must be 0 (the driver reads
// failed and attempted instead), sim_cycles_per_injection has no value
// on figures_warm, and jobs_per_s and submit_to_result_p50_s exist only
// on fleet_load, where wall_s and cells_per_s carry the same signal. The
// driver gets the same statistic the report and -compare use: the median
// over the measured repetitions, times in seconds of the calm reference
// host (host.go).
var driverEndToEnd = []string{"wall_s", "cpu_s", "peak_rss_mib", "cells_per_s", "setup_s"}

// driverLine is the one JSON object the driver reads from the last line
// of standard output: the end-to-end metrics of an untraced run, the
// per-layer metrics of a traced one.
func driverLine(r *WorkloadReport) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	put := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // JSON has no such numbers; a ratio over nothing reads 0
		}
		metrics[name] = value{v, unit}
	}
	if r.Traced {
		for _, name := range layerNames() {
			put(name, r.Layers[name].Value, r.Layers[name].Unit)
		}
	} else {
		for _, name := range driverEndToEnd {
			put(name, r.EndToEnd[name].Value, r.EndToEnd[name].Unit)
		}
	}
	buf, err := json.Marshal(map[string]any{
		"correct": r.Failed == 0, "attempted": max(r.Attempted, 1), "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // finite numbers and strings always marshal
	}
	return string(buf)
}
