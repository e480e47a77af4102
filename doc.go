// Package pgridfile is a reproduction of "Study of Scalable Declustering
// Algorithms for Parallel Grid Files" (Moon, Acharya, Saltz; IPPS 1996).
//
// The library implements grid files and Cartesian product files
// (internal/gridfile), the index-based declustering schemes DM, FX and HCAM
// with the paper's four conflict-resolution heuristics, the similarity-based
// SSP/MST algorithms, and the paper's minimax spanning tree algorithm
// (internal/core), a d-dimensional Hilbert curve (internal/sfc), the
// declustering simulator and metrics (internal/sim), the analytic models of
// Theorems 1 and 2 (internal/analytic), and a cost model of the paper's
// shared-nothing SPMD parallel grid file (internal/parallel).
//
// The benchmarks in bench_test.go regenerate every table and figure of the
// paper's evaluation via internal/experiments; cmd/gridbench does the same
// from the command line. See README.md for a tour and DESIGN.md for the
// system inventory and per-experiment index.
package pgridfile
