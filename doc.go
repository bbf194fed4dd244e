// Package repro reproduces "Efficient Process Replication for MPI
// Applications: Sharing Work Between Replicas" (Ropars, Lefray, Kim,
// Schiper — IPDPS 2015) as a pure-Go system: a deterministic cluster
// simulator, an MPI-flavoured runtime, SDR-MPI-style active replication,
// the intra-parallelization runtime itself, the paper's four benchmark
// applications, and a harness regenerating every figure of the evaluation.
//
// See README.md for a tour, DESIGN.md for the architecture and
// substitutions, and EXPERIMENTS.md for paper-vs-measured results.
// The root package holds only benchmarks (bench_test.go): one per figure,
// the sweep runner's, one intra-parallel section and one HPCCG iteration.
// The benchmark suite, with its end-to-end workloads and per-layer micros,
// is the nested perfbench module.
package repro
