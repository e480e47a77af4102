package core

import (
	"sort"

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
	dims := g.Domain.Dim()
	side := float64(uint64(1) << curve.Bits())
	keys := make([]uint64, len(g.Buckets))
	order := make([]int, len(g.Buckets))
	coords := make([]uint32, dims)
	for i, b := range g.Buckets {
		for d := 0; d < dims; d++ {
			ext := g.Domain[d].Length()
			frac := 0.0
			if ext > 0 {
				center := (b.Region[d].Lo + b.Region[d].Hi) / 2
				frac = (center - g.Domain[d].Lo) / ext
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
		keys[i] = curve.Key(coords)
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if keys[order[a]] != keys[order[b]] {
			return keys[order[a]] < keys[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}
