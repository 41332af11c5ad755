// Package workloads re-implements the paper's 10-benchmark suite in both
// ISA dialects: every benchmark exists as a CUDA-style build (SASS
// assembly for nvsim) and an OpenCL-style build (SI assembly for amdsim),
// mirroring how the paper runs the same benchmarks from the CUDA SDK,
// the AMD-APP SDK and Rodinia on GUFI and SIFI.
//
// Each build is a deterministic gpu.HostProgram: inputs are generated
// from a fixed per-benchmark seed, the CPU golden model replicates the
// kernel's float32 operation order exactly (so Verify can require
// bit-identical outputs), and Outputs exposes the device regions that the
// fault-injection engine diffs against the golden run.
//
// The seven benchmarks whose kernels use shared memory / LDS (backprop,
// dwtHaar1D, histogram, matrixMul, reduction, scan, transpose) form the
// Fig. 2 subset, exactly as in the paper; gaussian, kmeans and vectoradd
// do not touch local memory.
//
// Host programs. host.go is the one shape of a host program: run (one
// execution of a body on a device, with floats, words, alloc and a
// launch that picks the build by vendor), output (one device region the
// golden model predicts) and hostProgram, which derives Outputs and
// Verify from the outputs and refuses a vendor with no build at
// Benchmark.New (TestUnknownVendorRefusedAtNew). A benchmark file holds
// only its kernels, inputs, golden model, outputs and a straight-line
// body. run latches the first error: later calls do nothing, so a failed
// program touches the device no further
// (TestFailedAllocationStopsTheProgram), and Run returns that error
// itself, because finject's classify tells Timeout, full replay and DUE
// apart with errors.Is on it. TestHostProgramsPinned
// (testdata/programs.golden) pins, per program on the two mini and two
// paper chips, the run statistics and a SHA-256 of every output region.
// Nothing per run may be added that is not a device call: Run executes
// once per injection.
package workloads

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/stats"
)

// Benchmark is one suite entry.
type Benchmark struct {
	// Name as printed in the paper's figures.
	Name string
	// UsesLocal marks membership in the local-memory (Fig. 2) subset.
	UsesLocal bool
	// New builds a fresh, deterministic host program in the dialect of
	// the given vendor.
	New func(v gpu.Vendor) (*gpu.HostProgram, error)
}

// All returns the benchmark suite in the paper's figure order.
func All() []*Benchmark {
	return []*Benchmark{
		{Name: "backprop", UsesLocal: true, New: newBackprop},
		{Name: "dwtHaar1D", UsesLocal: true, New: newDWTHaar1D},
		{Name: "gaussian", UsesLocal: false, New: newGaussian},
		{Name: "histogram", UsesLocal: true, New: newHistogram},
		{Name: "kmeans", UsesLocal: false, New: newKMeans},
		{Name: "matrixMul", UsesLocal: true, New: newMatrixMul},
		{Name: "reduction", UsesLocal: true, New: newReduction},
		{Name: "scan", UsesLocal: true, New: newScan},
		{Name: "transpose", UsesLocal: true, New: newTranspose},
		{Name: "vectoradd", UsesLocal: false, New: newVectorAdd},
	}
}

// LocalMemorySubset returns the Fig. 2 benchmarks (local-memory users).
func LocalMemorySubset() []*Benchmark {
	var out []*Benchmark
	for _, b := range All() {
		if b.UsesLocal {
			out = append(out, b)
		}
	}
	return out
}

// ByName finds a benchmark by its figure name.
func ByName(name string) (*Benchmark, error) {
	for _, b := range All() {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// randFloats fills a slice with uniform values in [lo, hi).
func randFloats(rng *stats.RNG, n int, lo, hi float32) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = lo + (hi-lo)*rng.Float32()
	}
	return out
}

// randWords fills a slice with uniform 32-bit values below bound.
func randWords(rng *stats.RNG, n int, bound uint32) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(rng.Uint64n(uint64(bound)))
	}
	return out
}
