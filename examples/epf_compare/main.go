// epf_compare: the paper's combined performance-reliability metric.
//
// AVF alone cannot compare chips with different clocks, structure sizes
// and microarchitectures. This example computes EPF (Executions Per
// Failure = EIT / FIT_GPU) for the reduction benchmark on all four GPUs,
// showing how the metric folds execution time, structure capacity and
// measured AVF into a single decision-making number (Fig. 3).
//
// It also demonstrates the campaign orchestration layer: Fig. 1's
// register-file cells are measured first, and because both figure specs
// run on one scheduler, the EPF computation reuses them from the store
// instead of re-running half its campaigns.
//
//	go run ./examples/epf_compare
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/campaign"
	"repro/internal/experiment"
)

func main() {
	log.SetFlags(0)
	sched := campaign.New(campaign.Config{})
	runner := &experiment.Runner{Scheduler: sched}
	// figure runs one of the paper's canned figure specs, narrowed to
	// the reduction benchmark.
	figure := func(n int) *experiment.Result {
		spec, err := experiment.Figure(n)
		if err != nil {
			log.Fatal(err)
		}
		spec.Benchmarks = []string{"reduction"}
		spec.Injections, spec.Seed = 400, 23
		res, err := runner.Run(context.Background(), spec)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	// Fig. 1 slice: register-file AVF for this benchmark on all chips.
	fig1 := figure(1)
	fmt.Println("reduction: register-file AVF by chip (Fig. 1 slice)")
	for ci, name := range fig1.Chips {
		fmt.Printf("  %-16s AVF(FI) %6.2f%%\n", name, 100*fig1.Tables[0].Cells[0][ci].AVFFI)
	}

	// Fig. 3: the register-file campaigns above are reused from the
	// scheduler's store; only the local-memory campaigns run now.
	fig3 := figure(3)
	fmt.Println("\nreduction: Executions Per Failure by chip")
	fmt.Printf("\n%-16s %12s %12s %9s %9s\n", "chip", "EPF", "exec (s)", "AVF-RF", "AVF-LM")
	for ci, name := range fig3.Chips {
		r := fig3.EPF.Rows[0][ci]
		fmt.Printf("%-16s %12.3e %12.3e %8.2f%% %8.2f%%\n",
			name, r.EPF, r.Seconds, 100*r.RegAVF, 100*r.LocalAVF)
	}
	st := sched.Stats()
	fmt.Printf("\ncampaigns executed %d, served from store %d (Fig. 3 reused Fig. 1's cells)\n",
		st.Runs, st.Hits+st.Joins)
	fmt.Println("Larger EPF = more correct executions between failures.")
}
