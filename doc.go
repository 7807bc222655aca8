// Package repro is a from-scratch Go reproduction of "IAM Role Diet: A
// Scalable Approach to Detecting RBAC Data Inefficiencies" (Moratore,
// Barbaro, Zhauniarovich; DSN-S 2025).
//
// The library lives under internal/: the detection framework
// (internal/core), the paper's custom Role Diet algorithm and the
// DBSCAN/HNSW baselines (internal/cluster/...), the RBAC domain model
// (internal/rbac, which holds the assignment matrices as sparse rows),
// the bit-matrix arena (internal/bitmat), synthetic workload generators
// (internal/gen), a consolidation planner (internal/consolidate) and the
// measurement harness (internal/bench).
// The rolediet CLI (cmd/rolediet) and the runnable examples (examples/)
// sit on top.
//
// bench_test.go in this directory regenerates every table and figure of
// the paper's evaluation; see EXPERIMENTS.md for the recorded results.
package repro
