package workloads

import (
	"fmt"

	"repro/internal/gpu"
)

// NewVectorAddSized builds a vectoradd host program with a caller-chosen
// problem size. It backs the resource-occupancy study: sweeping n moves
// the number of resident blocks, hence the fraction of each chip's
// register file that holds live state, hence the AVF (the paper's
// occupancy correlation). The group size is the suite's standard 128.
func NewVectorAddSized(v gpu.Vendor, n int) (*gpu.HostProgram, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workloads: vectoradd size %d must be positive", n)
	}
	return vectorAdd(fmt.Sprintf("vectoradd-n%d", n), v, n, 0x5eed0001^uint64(n))
}

// SizedBenchmark wraps NewVectorAddSized as a Benchmark so campaign
// drivers can sweep problem sizes.
func SizedBenchmark(n int) *Benchmark {
	return &Benchmark{
		Name: fmt.Sprintf("vectoradd-n%d", n),
		New: func(v gpu.Vendor) (*gpu.HostProgram, error) {
			return NewVectorAddSized(v, n)
		},
	}
}
