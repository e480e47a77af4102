package core

import (
	"cmp"
	"slices"

	"pgridfile/internal/geom"
	"pgridfile/internal/sfc"
)

// CentroidCurve is the curve-allocation method for structures without a
// grid, such as R-tree leaf pages (Kamel and Faloutsos's Hilbert-based
// assignment for parallel R-trees): each bucket's region centroid is mapped
// to a space-filling-curve key over a normalized 2^bits grid, buckets are
// sorted by key, and disks are assigned round-robin. On a grid file it
// closely tracks HCAM; unlike HCAM it never needs conflict resolution
// because it ranks whole buckets, not cells.
type CentroidCurve struct {
	// NewCurve constructs the curve; nil means Hilbert.
	NewCurve func(dims, bits int) sfc.Curve
	// CurveName qualifies Name(); default "hilbert".
	CurveName string
	// Bits is the per-dimension resolution (default 10, capped so that
	// dims·bits <= 64).
	Bits int
}

// Name implements Allocator.
func (c *CentroidCurve) Name() string {
	name := c.CurveName
	if name == "" {
		name = "hilbert"
	}
	return "CentroidCurve(" + name + ")"
}

// Decluster implements Allocator.
func (c *CentroidCurve) Decluster(g Grid, disks int) (Allocation, error) {
	if err := checkArgs(g, disks); err != nil {
		return Allocation{}, err
	}
	dims := g.Domain.Dim()
	bits := c.Bits
	if bits <= 0 {
		bits = 10
	}
	for dims*bits > 64 {
		bits--
	}
	newCurve := c.NewCurve
	if newCurve == nil {
		newCurve = func(d, b int) sfc.Curve { return sfc.NewHilbert(d, b) }
	}
	order := CentroidOrder(g, newCurve(dims, bits))

	assign := make([]int, len(g.Buckets))
	for rank, idx := range order {
		assign[idx] = rank % disks
	}
	return Allocation{Disks: disks, Assign: assign}, nil
}

// CentroidOrder ranks the grid's buckets along a space-filling curve: each
// bucket's region centre is normalised to the domain, quantised to the
// curve's 2^bits grid and keyed, and the bucket indices are returned in
// ascending key order, ties by index. Spatially close buckets land close in
// the order — the locality CentroidCurve deals round-robin across disks and
// the page store (internal/store) keeps within each disk file.
func CentroidOrder(g Grid, curve sfc.Curve) []int {
	return CentroidOrderFunc(g.Domain, len(g.Buckets), curve, func(fn func(geom.Rect)) {
		for _, b := range g.Buckets {
			fn(b.Region)
		}
	})
}

// CentroidOrderFunc is CentroidOrder over n regions that regions hands to
// its argument in index order. A region is read only during the call, so
// regions may reuse one Rect: the page store ranks a grid file's buckets
// this way without building their views.
func CentroidOrderFunc(domain geom.Rect, n int, curve sfc.Curve, regions func(fn func(geom.Rect))) []int {
	dims := domain.Dim()
	side := float64(uint64(1) << curve.Bits())
	keys := make([]uint64, 0, n)
	coords := make([]uint32, dims)
	regions(func(r geom.Rect) {
		for d := 0; d < dims; d++ {
			ext := domain[d].Length()
			frac := 0.0
			if ext > 0 {
				center := (r[d].Lo + r[d].Hi) / 2
				frac = (center - domain[d].Lo) / ext
			}
			v := int64(frac * side)
			if v < 0 {
				v = 0
			}
			if v >= int64(side) {
				v = int64(side) - 1
			}
			coords[d] = uint32(v)
		}
		keys = append(keys, curve.Key(coords))
	})
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(keys[a], keys[b]); c != 0 {
			return c
		}
		return a - b
	})
	return order
}
