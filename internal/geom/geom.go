// Package geom provides the d-dimensional geometric primitives used by the
// grid file and the declustering algorithms: closed intervals, axis-aligned
// rectangles (boxes), points, range intersection tests, and the
// Kamel–Faloutsos proximity index that the minimax declustering algorithm
// uses as its edge weight.
//
// All coordinates are float64. Rectangles are half-open in spirit — the grid
// file partitions its domain into disjoint cells — but intersection tests
// treat boundaries as inclusive, matching the paper's treatment of range
// queries (a query touching a bucket boundary retrieves that bucket).
package geom

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Point is a location in d-dimensional space. The dimensionality is the
// slice length; all points, rectangles and queries interacting with one
// another must agree on it.
type Point []float64

// Clone returns an independent copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// String renders the point as "(x1, x2, ...)" with compact formatting.
func (p Point) String() string {
	parts := make([]string, len(p))
	for i, v := range p {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Interval is a closed interval [Lo, Hi] on one axis. An Interval with
// Lo > Hi is empty.
type Interval struct {
	Lo, Hi float64
}

// Length returns Hi-Lo, or 0 for an empty interval.
func (iv Interval) Length() float64 {
	if iv.Hi < iv.Lo {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Contains reports whether x lies in the closed interval.
func (iv Interval) Contains(x float64) bool {
	return iv.Lo <= x && x <= iv.Hi
}

// Intersects reports whether two closed intervals share at least one point.
func (iv Interval) Intersects(other Interval) bool {
	return iv.Lo <= other.Hi && other.Lo <= iv.Hi
}

// Overlap returns the length of the intersection of the two intervals
// (zero if they are disjoint or merely touch at a point).
func (iv Interval) Overlap(other Interval) float64 {
	lo := math.Max(iv.Lo, other.Lo)
	hi := math.Min(iv.Hi, other.Hi)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// Gap returns the distance separating two disjoint intervals, or zero when
// they intersect or touch.
func (iv Interval) Gap(other Interval) float64 {
	switch {
	case other.Lo > iv.Hi:
		return other.Lo - iv.Hi
	case iv.Lo > other.Hi:
		return iv.Lo - other.Hi
	default:
		return 0
	}
}

// Rect is an axis-aligned d-dimensional box given by one closed interval per
// dimension.
type Rect []Interval

// NewRect builds a Rect from matching lo/hi slices. It panics if the slices
// disagree in length, since that is always a programming error.
func NewRect(lo, hi []float64) Rect {
	if len(lo) != len(hi) {
		panic(fmt.Sprintf("geom: NewRect dimension mismatch: %d vs %d", len(lo), len(hi)))
	}
	r := make(Rect, len(lo))
	for i := range lo {
		r[i] = Interval{Lo: lo[i], Hi: hi[i]}
	}
	return r
}

// Dim returns the dimensionality of the rectangle.
func (r Rect) Dim() int { return len(r) }

// Clone returns an independent copy of r.
func (r Rect) Clone() Rect {
	s := make(Rect, len(r))
	copy(s, r)
	return s
}

// ContainsPoint reports whether p lies inside the closed box.
func (r Rect) ContainsPoint(p Point) bool {
	if len(p) != len(r) {
		return false
	}
	for i, iv := range r {
		if !iv.Contains(p[i]) {
			return false
		}
	}
	return true
}

// Intersects reports whether the two closed boxes share at least one point.
func (r Rect) Intersects(other Rect) bool {
	if len(r) != len(other) {
		return false
	}
	for i, iv := range r {
		if !iv.Intersects(other[i]) {
			return false
		}
	}
	return true
}

// Volume returns the product of side lengths ("area" in 2-D). A degenerate
// box has volume zero.
func (r Rect) Volume() float64 {
	v := 1.0
	for _, iv := range r {
		v *= iv.Length()
	}
	return v
}

// Center returns the midpoint of the box.
func (r Rect) Center() Point {
	c := make(Point, len(r))
	for i, iv := range r {
		c[i] = (iv.Lo + iv.Hi) / 2
	}
	return c
}

// Union returns the smallest box containing both r and other.
func (r Rect) Union(other Rect) Rect {
	if len(r) != len(other) {
		panic(fmt.Sprintf("geom: Union dimension mismatch: %d vs %d", len(r), len(other)))
	}
	u := make(Rect, len(r))
	for i := range r {
		u[i] = Interval{
			Lo: math.Min(r[i].Lo, other[i].Lo),
			Hi: math.Max(r[i].Hi, other[i].Hi),
		}
	}
	return u
}

// String renders the rect as "[lo1,hi1]x[lo2,hi2]...".
func (r Rect) String() string {
	parts := make([]string, len(r))
	for i, iv := range r {
		parts[i] = "[" + strconv.FormatFloat(iv.Lo, 'g', -1, 64) +
			"," + strconv.FormatFloat(iv.Hi, 'g', -1, 64) + "]"
	}
	return strings.Join(parts, "x")
}

// Proximity computes the Kamel–Faloutsos proximity index of two
// d-dimensional boxes within an enclosing domain. The result lies in [0,1];
// larger means the boxes are more likely to be retrieved by the same range
// query. Per dimension i with projections R_i, S_i:
//
//	prox_i = (1 + 2·δ_i)/3   if R_i and S_i intersect
//	prox_i = (1 − Δ_i)²/3    if R_i and S_i are disjoint
//
// where δ_i is the intersection length and Δ_i the separating gap, both as
// fractions of the domain's extent along dimension i. The overall index is
// the product over dimensions.
func Proximity(r, s, domain Rect) float64 {
	if len(r) != len(s) || len(r) != len(domain) {
		panic(fmt.Sprintf("geom: Proximity dimension mismatch: %d, %d, %d", len(r), len(s), len(domain)))
	}
	prox := 1.0
	for i := range r {
		length := domain[i].Length()
		if length <= 0 {
			// A degenerate domain axis carries no spatial information;
			// treat every pair as fully intersecting along it.
			prox *= 1.0
			continue
		}
		if r[i].Intersects(s[i]) {
			delta := r[i].Overlap(s[i]) / length
			prox *= (1 + 2*delta) / 3
		} else {
			gap := r[i].Gap(s[i]) / length
			d := 1 - gap
			prox *= d * d / 3
		}
	}
	return prox
}
