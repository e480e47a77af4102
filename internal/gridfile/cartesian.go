package gridfile

import (
	"fmt"

	"pgridfile/internal/geom"
)

// CartesianFile is a Cartesian product file: a complete d-dimensional grid
// in which every cell is its own bucket (no merging). It is the structure
// for which DM and FX were originally proposed and the setting of the
// paper's analytic study (Theorems 1 and 2). Because cells and buckets
// coincide, declustering needs no conflict resolution here.
type CartesianFile struct {
	sizes  []int32
	domain geom.Rect
}

// NewCartesian creates a Cartesian product file with the given number of
// cells per dimension over the given domain.
func NewCartesian(sizes []int, domain geom.Rect) (*CartesianFile, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("gridfile: Cartesian file needs at least one dimension")
	}
	if len(domain) != len(sizes) {
		return nil, fmt.Errorf("gridfile: domain has %d dims, want %d", len(domain), len(sizes))
	}
	s := make([]int32, len(sizes))
	for d, v := range sizes {
		if v < 1 {
			return nil, fmt.Errorf("gridfile: dimension %d has %d cells", d, v)
		}
		s[d] = int32(v)
	}
	return &CartesianFile{sizes: s, domain: domain.Clone()}, nil
}

// Domain returns the data domain.
func (c *CartesianFile) Domain() geom.Rect { return c.domain.Clone() }

// CellSizes returns the cells per dimension.
func (c *CartesianFile) CellSizes() []int {
	out := make([]int, len(c.sizes))
	for i, v := range c.sizes {
		out[i] = int(v)
	}
	return out
}

// NumCells returns the total number of cells (= buckets).
func (c *CartesianFile) NumCells() int { return totalCells(c.sizes) }

// CellRegion returns the domain-space box of the cell at the given
// coordinates (uniform partitioning).
func (c *CartesianFile) CellRegion(cell []int32) geom.Rect {
	r := make(geom.Rect, len(c.sizes))
	for d := range c.sizes {
		step := c.domain[d].Length() / float64(c.sizes[d])
		lo := c.domain[d].Lo + float64(cell[d])*step
		r[d] = geom.Interval{Lo: lo, Hi: lo + step}
	}
	return r
}

// Buckets returns one BucketView per cell, in row-major order, so that a
// Cartesian file can be declustered by the same algorithms as a grid file.
func (c *CartesianFile) Buckets() []BucketView {
	n := c.NumCells()
	views := make([]BucketView, 0, n)
	cell := make([]int32, len(c.sizes))
	for idx := 0; idx < n; idx++ {
		unflatten(idx, c.sizes, cell)
		lo := make([]int32, len(cell))
		hi := make([]int32, len(cell))
		copy(lo, cell)
		copy(hi, cell)
		views = append(views, BucketView{
			Index:  idx,
			ID:     int32(idx),
			CellLo: lo,
			CellHi: hi,
			Region: c.CellRegion(cell),
		})
	}
	return views
}
