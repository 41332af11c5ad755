// size_sweep: the paper's resource-occupancy factor in isolation.
//
// The same kernel at growing problem sizes occupies more of the chip's
// register file (more resident blocks), and the AVF follows. This sweep
// runs vectoradd from 1K to 32K elements on one chip and prints
// occupancy next to the ACE AVF and a small FI campaign's AVF.
//
//	go run ./examples/size_sweep [-chip "GeForce GTX 480"] [-n 200]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/chips"
	"repro/internal/finject"
	"repro/internal/gpu"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func main() {
	log.SetFlags(0)
	chipName := flag.String("chip", "GeForce GTX 480", "chip to sweep")
	inj := flag.Int("n", 200, "fault injections per size")
	flag.Parse()
	chip, err := chips.ByName(*chipName)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s: vectoradd size sweep (register file)\n\n", chip.Name)
	fmt.Printf("%8s %10s %10s %10s %10s\n", "elems", "occupancy", "AVF-ACE", "AVF-FI", "cycles")
	var occs, avfs []float64
	for _, n := range []int{1024, 2048, 4096, 8192, 16384, 32768} {
		bench := workloads.SizedBenchmark(n)
		res, err := finject.Run(finject.Campaign{
			Chip: chip, Benchmark: bench, Structure: gpu.RegisterFile,
			Injections: *inj, Seed: uint64(n),
		})
		if err != nil {
			log.Fatal(err)
		}
		if res.AVFACE == nil {
			log.Fatalf("%d elements: the golden run has no AVF-ACE", n)
		}
		regACE := *res.AVFACE
		fmt.Printf("%8d %9.2f%% %9.2f%% %9.2f%% %10d\n",
			n, 100*res.Occupancy, 100*regACE, 100*res.AVF(), res.GoldenStats.Cycles)
		occs = append(occs, res.Occupancy)
		avfs = append(avfs, regACE)
	}
	r, err := stats.PearsonCorrelation(occs, avfs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPearson correlation over the sweep: r = %+.3f\n", r)
}
