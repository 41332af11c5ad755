// Package repro is a from-scratch Go reproduction of "Microarchitecture
// Level Reliability Comparison of Modern GPU Designs: First Findings"
// (Vallero, Di Carlo, Tselonis, Gizopoulos — ISPASS 2017).
//
// The paper's three figures are regenerated by cmd/figures and measured
// end to end by go run ./bench; the root package holds only hand-run
// benchmarks (bench_test.go): the design-choice ablations and the engine
// comparisons the harness does not measure yet. The system itself lives
// in the internal packages:
//
//   - internal/simt: the machine core both simulators share (compute
//     units, launch loop, fault application, checkpoints);
//   - internal/asm: the assembler front end both ISA dialects share (line
//     grammar, operand lexing, branch targets; no opcodes);
//   - internal/nvsim + internal/sass: NVIDIA SIMT simulator — the SASS-like
//     ISA and its executor plug-in for the core (the GUFI substrate,
//     standing in for GPGPU-Sim 3.2.2);
//   - internal/amdsim + internal/siasm: AMD Southern Islands simulator —
//     the SI-like ISA and its executor plug-in (the SIFI substrate,
//     standing in for Multi2Sim 4.2);
//   - internal/workloads: the 10-benchmark suite in both ISA dialects, on
//     one host-program shape (host.go);
//   - internal/finject, internal/ace: the two reliability methodologies;
//   - internal/metrics, internal/protect: AVF/FIT/EIT/EPF and protection
//     what-if analysis;
//   - internal/campaign: cell keys, the result stores (MemoryStore and one
//     DiskStore with a JSON and a binary record codec), scheduler, lease
//     queue;
//   - internal/flight: the one table of in-flight calls under the
//     scheduler's cell coalescing and the golden cache;
//   - internal/wire: wire.Journal — the one append-only log under the
//     result stores, the job journal and the ownership journal — and the
//     versioned binary store / ownership format;
//   - internal/experiment: versioned experiment specs (the figures are
//     three canned ones), their compile pipeline and runner;
//   - internal/report: text and JSON renderers of experiment.Result;
//   - internal/api, internal/service, internal/client, internal/worker:
//     the HTTP API's one declaration, its front-end, its Go client and
//     the remote worker fleet.
//
// See README.md for usage and DESIGN.md for the system inventory.
package repro
