// Package repro is a from-scratch Go reproduction of "Microarchitecture
// Level Reliability Comparison of Modern GPU Designs: First Findings"
// (Vallero, Di Carlo, Tselonis, Gizopoulos — ISPASS 2017).
//
// The root package holds the benchmark harness that regenerates the
// paper's three figures (see bench_test.go); the system itself lives in
// the internal packages:
//
//   - internal/simt: the machine core both simulators share (compute
//     units, launch loop, fault application, checkpoints);
//   - internal/nvsim + internal/sass: NVIDIA SIMT simulator — the SASS-like
//     ISA and its executor plug-in for the core (the GUFI substrate,
//     standing in for GPGPU-Sim 3.2.2);
//   - internal/amdsim + internal/siasm: AMD Southern Islands simulator —
//     the SI-like ISA and its executor plug-in (the SIFI substrate,
//     standing in for Multi2Sim 4.2);
//   - internal/workloads: the 10-benchmark suite in both ISA dialects;
//   - internal/finject, internal/ace: the two reliability methodologies;
//   - internal/metrics, internal/protect: AVF/FIT/EIT/EPF and protection
//     what-if analysis;
//   - internal/campaign: cell keys, the result stores (MemoryStore and one
//     DiskStore with a JSON and a binary record codec), scheduler, lease
//     queue;
//   - internal/wire: wire.Journal — the one append-only log under the
//     result stores, the job journal and the ownership journal — and the
//     versioned binary store / ladder / ownership format;
//   - internal/core, internal/report: figure-level experiment drivers.
//
// See README.md for usage, DESIGN.md for the system inventory and
// EXPERIMENTS.md for measured-vs-paper results.
package repro
