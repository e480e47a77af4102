// Package core implements the paper's primary contribution: declustering
// algorithms for parallel grid files. It provides
//
//   - the three index-based schemes extended from Cartesian product files —
//     disk modulo (DM), fieldwise xor (FX) and Hilbert curve allocation
//     (HCAM) — together with the four conflict-resolution heuristics that
//     the extension to grid files requires (random, most frequent, data
//     balance, area balance; Section 2 / Algorithm 1);
//   - the similarity-based algorithms of Fang et al. (SSP, MST) used as
//     comparison points (Section 3);
//   - the minimax spanning tree algorithm (Algorithm 2), which grows M
//     spanning trees in round-robin order using a minimum-of-maximum edge
//     weight criterion over the Kamel–Faloutsos proximity index and
//     guarantees perfectly balanced partitions.
//
// All algorithms consume a Grid (the declustering view of a grid file or a
// Cartesian product file) and produce an Allocation mapping each bucket to a
// disk. They are deterministic given their seeds.
package core

import (
	"fmt"

	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
)

// Grid is the declustering view of a multidimensional file: grid resolution,
// data domain and one view per data bucket. Bucket order defines the dense
// indices used by Allocation.
type Grid struct {
	// Sizes is the number of grid cells per dimension.
	Sizes []int
	// Domain is the data domain, used for proximity computations.
	Domain geom.Rect
	// Buckets lists all live buckets; Buckets[i].Index == i.
	Buckets []gridfile.BucketView
}

// FromGridFile captures the declustering view of a grid file.
func FromGridFile(f *gridfile.File) Grid {
	return Grid{
		Sizes:   f.CellSizes(),
		Domain:  f.Domain(),
		Buckets: f.Buckets(),
	}
}

// FromCartesian captures the declustering view of a Cartesian product file.
func FromCartesian(c *gridfile.CartesianFile) Grid {
	return Grid{
		Sizes:   c.CellSizes(),
		Domain:  c.Domain(),
		Buckets: c.Buckets(),
	}
}

// Allocation assigns every bucket (by dense index) to a disk in [0, Disks).
type Allocation struct {
	Disks  int
	Assign []int
}

// Validate checks the allocation is complete and within range.
func (a Allocation) Validate(nBuckets int) error {
	if a.Disks < 1 {
		return fmt.Errorf("core: allocation has %d disks", a.Disks)
	}
	if len(a.Assign) != nBuckets {
		return fmt.Errorf("core: allocation covers %d buckets, want %d", len(a.Assign), nBuckets)
	}
	for i, d := range a.Assign {
		if d < 0 || d >= a.Disks {
			return fmt.Errorf("core: bucket %d assigned to disk %d of %d", i, d, a.Disks)
		}
	}
	return nil
}

// DiskLoads returns the number of buckets per disk.
func (a Allocation) DiskLoads() []int {
	loads := make([]int, a.Disks)
	for _, d := range a.Assign {
		loads[d]++
	}
	return loads
}

// Allocator is a declustering algorithm.
type Allocator interface {
	// Name identifies the algorithm in experiment output (e.g. "DM/D").
	Name() string
	// Decluster assigns every bucket of g to one of disks disks.
	Decluster(g Grid, disks int) (Allocation, error)
}

// checkArgs validates common Decluster preconditions.
func checkArgs(g Grid, disks int) error {
	if disks < 1 {
		return fmt.Errorf("core: disks must be >= 1, got %d", disks)
	}
	if len(g.Buckets) == 0 {
		return fmt.Errorf("core: grid has no buckets")
	}
	if len(g.Sizes) == 0 {
		return fmt.Errorf("core: grid has no dimensions")
	}
	return nil
}
