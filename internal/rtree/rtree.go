// Package rtree implements an R-tree bulk-loaded with the Sort-Tile-
// Recursive (STR) method, with leaf pages as the unit of declustering. The
// paper's minimax algorithm takes its edge weight — the proximity index —
// from Kamel and Faloutsos's *Parallel R-trees*, whose setting is exactly
// this: distribute R-tree leaf pages over disks so that spatially close
// pages land apart. This package lets the repository demonstrate that the
// declustering algorithms generalize from grid files to the tree-based
// structure class the paper's introduction discusses.
//
// The tree is static (bulk-loaded); range search descends from the root
// pruning by minimum bounding rectangles. Leaves expose the same BucketView
// shape as grid-file buckets, so the proximity-based algorithms (minimax,
// SSP, MST) and the centroid-curve allocator apply unchanged.
package rtree

import (
	"fmt"
	"sort"

	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
)

// Tree is a static, STR-bulk-loaded R-tree over point data.
type Tree struct {
	dims     int
	domain   geom.Rect
	root     *node
	leaves   []*node // leaf id = index
	capacity int
	fanout   int
	height   int
}

// node is either a leaf holding points or an internal node holding children.
type node struct {
	mbr      geom.Rect
	children []*node
	keys     []float64 // leaf only, flat dims-wide records
	leafID   int32     // leaf only
}

// Config controls bulk loading.
type Config struct {
	// LeafCapacity is the maximum number of points per leaf page
	// (the paper's bucket capacity; >= 2).
	LeafCapacity int
	// Fanout is the maximum children per internal node (>= 2); defaults
	// to LeafCapacity when zero.
	Fanout int
	// Domain is the data domain used for proximity computations; inferred
	// from the data when empty.
	Domain geom.Rect
}

// BulkLoad builds the tree with Sort-Tile-Recursive packing: points are
// recursively sorted along each dimension and cut into equal slabs so that
// leaves are square-ish tiles of at most LeafCapacity points.
func BulkLoad(points []geom.Point, cfg Config) (*Tree, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("rtree: no points")
	}
	if cfg.LeafCapacity < 2 {
		return nil, fmt.Errorf("rtree: LeafCapacity %d < 2", cfg.LeafCapacity)
	}
	dims := len(points[0])
	if dims == 0 {
		return nil, fmt.Errorf("rtree: zero-dimensional points")
	}
	for i, p := range points {
		if len(p) != dims {
			return nil, fmt.Errorf("rtree: point %d has %d dims, want %d", i, len(p), dims)
		}
	}
	fanout := cfg.Fanout
	if fanout == 0 {
		fanout = cfg.LeafCapacity
	}
	if fanout < 2 {
		return nil, fmt.Errorf("rtree: Fanout %d < 2", fanout)
	}

	domain := cfg.Domain
	if len(domain) == 0 {
		domain = inferDomain(points, dims)
	} else if len(domain) != dims {
		return nil, fmt.Errorf("rtree: domain has %d dims, data has %d", len(domain), dims)
	}

	t := &Tree{dims: dims, domain: domain.Clone(), capacity: cfg.LeafCapacity, fanout: fanout}

	// Copy the points so sorting does not disturb the caller's slice.
	pts := make([]geom.Point, len(points))
	copy(pts, points)
	leaves := t.strTile(pts, 0)
	for _, l := range leaves {
		l.leafID = int32(len(t.leaves))
		t.leaves = append(t.leaves, l)
	}

	// Pack internal levels bottom-up by the same tiling on MBR centroids.
	level := leaves
	t.height = 1
	for len(level) > 1 {
		level = t.packLevel(level)
		t.height++
	}
	t.root = level[0]
	return t, nil
}

func inferDomain(points []geom.Point, dims int) geom.Rect {
	r := make(geom.Rect, dims)
	for d := 0; d < dims; d++ {
		lo, hi := points[0][d], points[0][d]
		for _, p := range points[1:] {
			if p[d] < lo {
				lo = p[d]
			}
			if p[d] > hi {
				hi = p[d]
			}
		}
		r[d] = geom.Interval{Lo: lo, Hi: hi}
	}
	return r
}

// strTile recursively sorts points along dimension d and cuts them into
// slabs sized so that the final tiles hold at most capacity points.
func (t *Tree) strTile(pts []geom.Point, d int) []*node {
	if len(pts) <= t.capacity {
		return []*node{t.newLeaf(pts)}
	}
	if d == t.dims-1 {
		// Last dimension: cut into capacity-sized runs.
		sort.Slice(pts, func(i, j int) bool { return pts[i][d] < pts[j][d] })
		var out []*node
		for start := 0; start < len(pts); start += t.capacity {
			end := start + t.capacity
			if end > len(pts) {
				end = len(pts)
			}
			out = append(out, t.newLeaf(pts[start:end]))
		}
		return out
	}

	// Number of leaves this subset needs, tiled into ~equal slabs along d:
	// the STR rule uses ceil(P^((D-d-1)/(D-d))) slabs of equal size... in
	// practice slabs = ceil(nLeaves^(1/(remaining dims))) balances tiles.
	nLeaves := (len(pts) + t.capacity - 1) / t.capacity
	remaining := t.dims - d
	slabs := ceilRoot(nLeaves, remaining)
	sort.Slice(pts, func(i, j int) bool { return pts[i][d] < pts[j][d] })
	per := (len(pts) + slabs - 1) / slabs
	var out []*node
	for start := 0; start < len(pts); start += per {
		end := start + per
		if end > len(pts) {
			end = len(pts)
		}
		out = append(out, t.strTile(pts[start:end], d+1)...)
	}
	return out
}

// ceilRoot returns ceil(n^(1/k)).
func ceilRoot(n, k int) int {
	if n <= 1 || k <= 1 {
		return n
	}
	r := 1
	for pow(r, k) < n {
		r++
	}
	return r
}

func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
		if out < 0 { // overflow guard; never hit at our sizes
			return 1 << 62
		}
	}
	return out
}

func (t *Tree) newLeaf(pts []geom.Point) *node {
	n := &node{mbr: mbrOfPoints(pts)}
	n.keys = make([]float64, 0, len(pts)*t.dims)
	for _, p := range pts {
		n.keys = append(n.keys, p...)
	}
	return n
}

func mbrOfPoints(pts []geom.Point) geom.Rect {
	r := make(geom.Rect, len(pts[0]))
	for d := range r {
		r[d] = geom.Interval{Lo: pts[0][d], Hi: pts[0][d]}
	}
	for _, p := range pts[1:] {
		for d := range r {
			if p[d] < r[d].Lo {
				r[d].Lo = p[d]
			}
			if p[d] > r[d].Hi {
				r[d].Hi = p[d]
			}
		}
	}
	return r
}

// packLevel tiles a level of nodes into parents by centroid ordering.
func (t *Tree) packLevel(level []*node) []*node {
	// Sort by centroid along the first dimension, tile into slabs, then
	// sort each slab by the next dimension, and group fanout-at-a-time
	// (simple 2-pass STR over node centroids; adequate for static trees).
	nParents := (len(level) + t.fanout - 1) / t.fanout
	slabs := ceilRoot(nParents, t.dims)
	sort.Slice(level, func(i, j int) bool {
		return level[i].mbr.Center()[0] < level[j].mbr.Center()[0]
	})
	per := (len(level) + slabs - 1) / slabs
	var parents []*node
	for start := 0; start < len(level); start += per {
		end := start + per
		if end > len(level) {
			end = len(level)
		}
		slab := level[start:end]
		if t.dims > 1 {
			sort.Slice(slab, func(i, j int) bool {
				return slab[i].mbr.Center()[1] < slab[j].mbr.Center()[1]
			})
		}
		for s := 0; s < len(slab); s += t.fanout {
			e := s + t.fanout
			if e > len(slab) {
				e = len(slab)
			}
			children := append([]*node(nil), slab[s:e]...)
			mbr := children[0].mbr.Clone()
			for _, c := range children[1:] {
				mbr = mbr.Union(c.mbr)
			}
			parents = append(parents, &node{mbr: mbr, children: children})
		}
	}
	return parents
}

// Dims returns the dimensionality.
func (t *Tree) Dims() int { return t.dims }

// Domain returns the tree's domain.
func (t *Tree) Domain() geom.Rect { return t.domain.Clone() }

// NumLeaves returns the number of leaf pages.
func (t *Tree) NumLeaves() int { return len(t.leaves) }

// Height returns the number of levels (1 = root is a leaf).
func (t *Tree) Height() int { return t.height }

// BucketsInRange returns the ids of the leaf pages whose MBR intersects q,
// in ascending id order — the I/O a range query must perform. It satisfies
// sim.Source.
func (t *Tree) BucketsInRange(q geom.Rect) []int32 {
	if len(q) != t.dims {
		return nil
	}
	var ids []int32
	var walk func(n *node)
	walk = func(n *node) {
		if !n.mbr.Intersects(q) {
			return
		}
		if n.children == nil {
			ids = append(ids, n.leafID)
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// RangeCount returns the number of points inside the closed box q.
func (t *Tree) RangeCount(q geom.Rect) int {
	count := 0
	for _, id := range t.BucketsInRange(q) {
		l := t.leaves[id]
		n := len(l.keys) / t.dims
		for i := 0; i < n; i++ {
			inside := true
			for d := 0; d < t.dims; d++ {
				v := l.keys[i*t.dims+d]
				if v < q[d].Lo || v > q[d].Hi {
					inside = false
					break
				}
			}
			if inside {
				count++
			}
		}
	}
	return count
}

// Leaves returns the declustering view of the leaf pages: one BucketView
// per leaf with its MBR as the region. Cell bounds are zeroed — R-trees
// have no grid, so only region-based (proximity/centroid) algorithms apply.
func (t *Tree) Leaves() []gridfile.BucketView {
	views := make([]gridfile.BucketView, len(t.leaves))
	for i, l := range t.leaves {
		views[i] = gridfile.BucketView{
			Index:   i,
			ID:      l.leafID,
			CellLo:  make([]int32, t.dims),
			CellHi:  make([]int32, t.dims),
			Region:  l.mbr.Clone(),
			Records: len(l.keys) / t.dims,
		}
	}
	return views
}

// IndexByID returns the identity table (leaf ids are already dense).
func (t *Tree) IndexByID() []int {
	out := make([]int, len(t.leaves))
	for i := range out {
		out[i] = i
	}
	return out
}
