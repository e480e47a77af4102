package pgridfile

// This file is the library's public facade: the types and constructors a
// downstream user needs, re-exported from the internal packages. Everything
// here is a thin alias or wrapper — the implementations, and the full
// low-level API, live in internal/* (see README.md for the package map).

import (
	"io"

	"pgridfile/internal/core"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/sim"
	"pgridfile/internal/synth"
	"pgridfile/internal/workload"
)

// Geometry.
type (
	// Point is a d-dimensional key.
	Point = geom.Point
	// Interval is a closed interval on one axis.
	Interval = geom.Interval
	// Rect is an axis-aligned box: one interval per dimension.
	Rect = geom.Rect
)

// NewRect builds a Rect from lo/hi corner slices.
func NewRect(lo, hi []float64) Rect { return geom.NewRect(lo, hi) }

// Proximity is the Kamel–Faloutsos proximity index of two boxes within a
// domain: the edge weight of the minimax algorithm.
func Proximity(r, s, domain Rect) float64 { return geom.Proximity(r, s, domain) }

// Grid file storage.
type (
	// GridFile is the multidimensional storage structure.
	GridFile = gridfile.File
	// GridConfig configures a new grid file.
	GridConfig = gridfile.Config
	// Record is a record of the grid file: its key and nothing else.
	Record = gridfile.Record
	// Neighbor is one k-NN result.
	Neighbor = gridfile.Neighbor
	// CartesianFile is the one-bucket-per-cell structure of the analytic
	// study.
	CartesianFile = gridfile.CartesianFile
)

// NewGridFile creates an empty grid file.
func NewGridFile(cfg GridConfig) (*GridFile, error) { return gridfile.New(cfg) }

// BulkLoad builds a grid file from a batch, inserting in Hilbert order.
func BulkLoad(cfg GridConfig, recs []Record) (*GridFile, error) {
	return gridfile.BulkLoad(cfg, recs)
}

// ReadGridFile deserializes a grid file written with GridFile.WriteTo.
func ReadGridFile(r io.Reader) (*GridFile, error) { return gridfile.Read(r) }

// NewCartesian creates a Cartesian product file.
func NewCartesian(sizes []int, domain Rect) (*CartesianFile, error) {
	return gridfile.NewCartesian(sizes, domain)
}

// Declustering.
type (
	// Allocator is a declustering algorithm.
	Allocator = core.Allocator
	// Allocation maps buckets to disks.
	Allocation = core.Allocation
	// DeclusterView is the bucket-level view algorithms consume.
	DeclusterView = core.Grid
	// Minimax is the paper's minimax spanning tree algorithm.
	Minimax = core.Minimax
	// SSP is the short-spanning-path algorithm of Fang et al.
	SSP = core.SSP
	// MST is the minimal-spanning-tree algorithm of Fang et al.
	MST = core.MST
	// Refine is the workload-driven refinement extension.
	Refine = core.Refine
)

// ViewOf captures the declustering view of a grid file.
func ViewOf(f *GridFile) DeclusterView { return core.FromGridFile(f) }

// ViewOfCartesian captures the declustering view of a Cartesian file.
func ViewOfCartesian(c *CartesianFile) DeclusterView { return core.FromCartesian(c) }

// NewIndexBased builds an index-based algorithm from a scheme code
// (DM, GDM, FX, HCAM, ZCAM, GrayCAM) and a conflict-resolution code
// (R random, F most frequent, D data balance, A area balance).
func NewIndexBased(scheme, resolver string, seed int64) (Allocator, error) {
	return core.NewIndexBased(scheme, resolver, seed)
}

// Evaluation.
type (
	// ReplayResult aggregates a workload replay.
	ReplayResult = sim.Result
)

// Replay runs a range-query workload against a declustered grid file and
// returns the paper's metrics (response time in bucket fetches, optimal
// reference, distribution percentiles).
func Replay(f *GridFile, alloc Allocation, queries []Rect) (ReplayResult, error) {
	return sim.Replay(f, alloc, f.IndexByID(), queries)
}

// DataBalanceDegree is the paper's fairness metric: B_max × M / B_sum.
func DataBalanceDegree(alloc Allocation) float64 { return sim.DataBalanceDegree(alloc) }

// ClosestPairsSameDisk counts buckets co-located with their most likely
// co-accessed companion (Tables 2–3 of the paper).
func ClosestPairsSameDisk(v DeclusterView, alloc Allocation) int {
	return sim.CountSameDisk(sim.NearestCompanions(v), alloc)
}

// Workloads.

// SquareRangeQueries generates n random square range queries covering the
// fraction r of the domain volume each.
func SquareRangeQueries(domain Rect, r float64, n int, seed int64) []Rect {
	return workload.SquareRange(domain, r, n, seed)
}

// Datasets.
type (
	// Dataset is a generated point set plus grid parameters.
	Dataset = synth.Dataset
)

// Dataset generators from the paper's evaluation (and substitutes for its
// real datasets); see internal/synth for the full set.
var (
	Uniform2D = synth.Uniform2D
	Hotspot2D = synth.Hotspot2D
	Correl2D  = synth.Correl2D
	DSMC3D    = synth.DSMC3D
	Stock3D   = synth.Stock3D
	DSMC4D    = synth.DSMC4D
	MHD4D     = synth.MHD4D
)
