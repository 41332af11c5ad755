// ace_vs_fi: the paper's methodology comparison on one benchmark.
//
// For matrixMul on all four GPUs it measures the AVF of both target
// structures with statistical fault injection and with ACE analysis, and
// prints the per-structure gap — reproducing the paper's observation that
// ACE is a cheap, accurate substitute for fault injection on the local
// memory, while it is conservative for the register file.
//
//	go run ./examples/ace_vs_fi
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/experiment"
	"repro/internal/gpu"
)

func main() {
	log.SetFlags(0)
	// One spec: matrixMul on the paper's four chips (the default chip
	// axis), both structures, both methodologies per cell.
	res, err := (&experiment.Runner{}).Run(context.Background(), experiment.Spec{
		Benchmarks: []string{"matrixMul"},
		Structures: []gpu.Structure{gpu.RegisterFile, gpu.LocalMemory},
		Estimator:  experiment.EstimatorBoth,
		Injections: 400,
		Seed:       11,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("matrixMul: AVF by methodology (%d injections per FI campaign)\n\n", res.Spec.Injections)
	fmt.Printf("%-16s %-14s %9s %9s %10s\n", "chip", "structure", "AVF-FI", "AVF-ACE", "ACE-FI gap")
	for ci, chip := range res.Chips {
		for _, tbl := range res.Tables {
			cell := tbl.Cells[0][ci]
			fmt.Printf("%-16s %-14s %8.2f%% %8.2f%% %+9.2f%%\n",
				chip, tbl.Structure, 100*cell.AVFFI, 100*cell.AVFACE,
				100*(cell.AVFACE-cell.AVFFI))
		}
	}
	fmt.Println("\nA positive gap means ACE analysis overestimates the FI-measured AVF.")
}
